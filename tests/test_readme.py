"""The README's library example and the package's public names."""

import ast
from pathlib import Path

import plexcount

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_and_public_names():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    # run the block statement by statement; a commented expression must repr as its comment
    for statement in ast.parse(block).body:
        if isinstance(statement, ast.Expr):
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            expected = lines[statement.end_lineno - 1].split("#", 1)[1].strip()
            assert repr(eval(code, namespace)) == expected
            checked.append(statement.end_lineno)
        else:
            exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
    assert checked == [number for number, line in enumerate(lines, 1) if "#" in line]
    assert len(checked) == 4

    assert plexcount.__all__ == [
        "CheckResult", "CycleIndex", "GoldenData", "IntPolynomial", "ONE",
        "Partition", "burnside_polynomial", "cycle_index_subset_action",
        "exhaustive_plex_histogram", "induced_cycle_type", "load_golden", "partitions_of",
        "permutation_count", "plex_count", "plex_polynomial", "run_scope",
        "subset_action_terms", "substitute",
    ]
    for name in plexcount.__all__:
        assert getattr(plexcount, name) is not None
