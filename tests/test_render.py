"""Plain, LaTeX, and structured renderings of cycle indices."""

import json

import pytest

from plexcount.cycle_index import cycle_index_subset_action, subset_action_terms
from plexcount.partitions import Partition
from plexcount.render import (_decimal, monomial_latex, monomial_plain, ordered_terms,
                              parse_structured, render_latex, render_plain,
                              render_structured)

LATEX_6_3 = ("\\frac{1}{720}\\left("
             "a_1^{20} + 15 a_1^8 a_2^6 + 45 a_1^4 a_2^8 + 80 a_1^2 a_3^6"
             " + 120 a_1^2 a_3^2 a_6^2 + 15 a_2^{10} + 180 a_2^2 a_4^4"
             " + 120 a_2 a_6^3 + 144 a_5^4\\right)")
PLAIN_4_2_UNMERGED = ("1/24 * (\n"
                      "    6 a2 a4       [from 4]\n"
                      "  + 8 a3^2        [from 3+1]\n"
                      "  + 3 a1^2 a2^2   [from 2+2]\n"
                      "  + 6 a1^2 a2^2   [from 2+1+1]\n"
                      "  + a1^6          [from 1+1+1+1]\n"
                      ")")
LATEX_4_2_UNMERGED = ("\\frac{1}{24}\\bigl(\n"
                      "  6 a_2 a_4 % from 4\n"
                      "  + 8 a_3^2 % from 3+1\n"
                      "  + 3 a_1^2 a_2^2 % from 2+2\n"
                      "  + 6 a_1^2 a_2^2 % from 2+1+1\n"
                      "  + a_1^6 % from 1+1+1+1\n"
                      "\\bigr)")


def test_monomial_plain():
    assert monomial_plain(Partition({1: 8, 2: 6})) == "a1^8 a2^6"
    assert monomial_plain(Partition({2: 1, 6: 3})) == "a2 a6^3"
    assert monomial_plain(Partition({5: 4}), var="y") == "y5^4"
    assert monomial_plain(Partition()) == "1"


def test_monomial_latex():
    assert monomial_latex(Partition({1: 20})) == "a_1^{20}"
    assert monomial_latex(Partition({2: 1, 12: 4})) == "a_2 a_{12}^4"
    assert monomial_latex(Partition({5: 4}), var="y") == "y_5^4"


def test_ordered_terms_put_identity_term_first():
    # the action need not be faithful (r = p), so only the monomial is pinned
    for p in range(1, 10):
        for r in range(1, p + 1):
            terms = ordered_terms(cycle_index_subset_action(p, r))
            assert [size for size, _ in terms[0][0]] == [1]  # pure a_1 power leads


def test_ordered_terms_sort_exponent_vectors_descending():
    # the rendering order by its definition: the vector (mult of a_1, a_2, ...,
    # a_points) of each term, largest first
    for p in range(1, 10):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)
            vectors = [tuple(dict(monomial).get(size, 0)
                             for size in range(1, z.ambient_points + 1))
                       for monomial, _ in ordered_terms(z)]
            assert vectors == sorted(vectors, reverse=True)


def test_render_plain_s3():
    assert render_plain(cycle_index_subset_action(3, 1)) == (
        "1/6 * (\n"
        "    a1^3\n"
        "  + 3 a1 a2\n"
        "  + 2 a3\n"
        ")")


def test_render_latex_6_3_frozen():
    assert render_latex(cycle_index_subset_action(6, 3)) == LATEX_6_3


def test_render_latex_variable_flag():
    text = render_latex(cycle_index_subset_action(6, 3), var="y")
    assert "y_1^{20}" in text and "a_1" not in text


def test_render_plain_unmerged_labels_sources():
    text = render_plain(cycle_index_subset_action(6, 3), unmerged=subset_action_terms(6, 3))
    lines = [line for line in text.splitlines() if "40 a1^2 a3^6" in line]
    assert len(lines) == 2
    assert any("[from 3+3]" in line for line in lines)
    assert any("[from 3+1+1+1]" in line for line in lines)


def test_render_latex_unmerged_labels_sources():
    text = render_latex(cycle_index_subset_action(6, 3), unmerged=subset_action_terms(6, 3))
    assert text.count("90 a_2^2 a_4^4") == 2
    assert "% from 4+2" in text and "% from 4+1+1" in text


def test_render_unmerged_4_2_frozen():
    z, terms = cycle_index_subset_action(4, 2), subset_action_terms(4, 2)
    assert render_plain(z, unmerged=terms) == PLAIN_4_2_UNMERGED
    assert render_latex(z, unmerged=terms) == LATEX_4_2_UNMERGED
    assert render_plain(z, var="y", unmerged=terms) == PLAIN_4_2_UNMERGED.replace("a", "y")


def test_structured_roundtrip():
    for p in range(1, 10):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)
            assert parse_structured(render_structured(z, p, r)) == z


def test_structured_roundtrip_unmerged():
    for p in range(1, 8):
        for r in range(1, p + 1):
            z = cycle_index_subset_action(p, r)
            text = render_structured(z, p, r, unmerged=subset_action_terms(p, r))
            assert parse_structured(text) == z


def test_structured_header_and_weights_are_strings():
    z = cycle_index_subset_action(6, 3)
    lines = render_structured(z, 6, 3).splitlines()
    header = json.loads(lines[0])
    assert header == {"kind": "cycle-index", "p": 6, "r": 3, "points": 20,
                      "group_order": "720", "merged": True, "terms": 9}
    for line in lines[1:]:
        record = json.loads(line)
        assert isinstance(record["weight"], str)
        assert all(isinstance(v, int) for v in record["monomial"].values())


def test_structured_unmerged_carries_sources():
    z = cycle_index_subset_action(6, 3)
    text = render_structured(z, 6, 3, unmerged=subset_action_terms(6, 3))
    records = [json.loads(line) for line in text.splitlines()]
    assert records[0]["merged"] is False
    assert records[0]["terms"] == 11
    sources = [record["source"] for record in records[1:]]
    assert sources[0] == {"6": 1}
    assert sources[-1] == {"1": 6}


def test_parse_structured_rejects_bad_documents():
    z = cycle_index_subset_action(4, 2)
    good = render_structured(z, 4, 2)
    with pytest.raises(ValueError):
        parse_structured("")
    with pytest.raises(ValueError):
        parse_structured(good.replace("cycle-index", "other-kind"))
    with pytest.raises(ValueError):
        parse_structured("\n".join(good.splitlines()[:-1]))
    header, first, *rest = good.splitlines()
    no_group_order = {key: value for key, value in json.loads(header).items()
                      if key != "group_order"}
    record = json.loads(first)
    del record["monomial"]
    empty = {"kind": "cycle-index", "terms": 0, "group_order": "0"}
    for bad in ("[]", "\n".join([json.dumps(no_group_order), first, *rest]),
                json.dumps({**empty, "points": -3}), json.dumps({**empty, "points": 4}),
                "\n".join([header, "[1]", *rest]),
                "\n".join([header, json.dumps(record), *rest])):
        with pytest.raises(ValueError):
            parse_structured(bad)


def test_parse_structured_rejects_non_integer_exponents():
    header, *terms = render_structured(cycle_index_subset_action(3, 1), 3, 1).splitlines()
    record = json.loads(terms[0])
    assert record["monomial"] == {"1": 3}
    for bad in (3.0, True, "3"):
        record["monomial"] = {"1": bad}
        with pytest.raises(ValueError):
            parse_structured("\n".join([header, json.dumps(record), *terms[1:]]))


def test_decimal_strings_are_ascii_digits_only():
    assert _decimal("0") == 0
    assert _decimal("720") == 720
    header, *terms = render_structured(cycle_index_subset_action(3, 1), 3, 1).splitlines()
    assert json.loads(header)["group_order"] == "6"
    assert json.loads(terms[0]) == {"monomial": {"1": 3}, "weight": "1"}
    for bad in (" +0_6 ", "0_3", "-1", "", "\u0661\u0662"):
        with pytest.raises(ValueError):
            _decimal(bad)
        edited_header = json.dumps({**json.loads(header), "group_order": bad})
        edited_weight = json.dumps({"monomial": {"1": 3}, "weight": bad})
        edited_size = json.dumps({"monomial": {bad: 3}, "weight": "1"})
        for document in ([edited_header, *terms], [header, edited_weight, *terms[1:]],
                         [header, edited_size, *terms[1:]]):
            with pytest.raises(ValueError):
                parse_structured("\n".join(document))


def test_rendering_deterministic():
    for render in (render_plain, render_latex):
        first = render(cycle_index_subset_action(7, 3))
        again = render(cycle_index_subset_action(7, 3))
        assert first == again
