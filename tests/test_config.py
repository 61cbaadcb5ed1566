import re
from pathlib import Path
from textwrap import dedent

import pytest

from valuesets.config import _KEYS, build_family, parse_config
from valuesets.errors import (
    ParseError,
    RankDeficient,
    ReducibleModulus,
    ValidationError,
)

MINIMAL = dedent(
    """\
    [field]
    p = 7

    [family]
    kind = linear
    d = 4
    m = 1
    forms = A3
    """
)


def test_minimal_config_gets_defaults():
    cfg = parse_config(MINIMAL)
    assert (cfg.p, cfg.s, cfg.q) == (7, 1, 7)
    assert cfg.kind == "linear" and cfg.d == 4 and cfg.m == 1
    assert cfg.forms == ("A3",)
    assert cfg.r_max is None and cfg.effective_r_max == 4
    assert cfg.oracle_budget == 5_000_000
    assert cfg.diag_extensions == (1, 2)
    assert cfg.workers == 1
    assert cfg.csv_path is None and cfg.summary_path is None
    assert cfg.family_id() == "linear-d4-m1-A3"


def test_full_config_roundtrip():
    cfg = parse_config(
        dedent(
            """\
            # comment
            [field]
            p = 2
            s = 2
            modulus = 1, 1, 1

            [family]
            kind = custom
            d = 3
            m = 1
            forms = A2 + A1

            [run]
            r_max = 2
            oracle_budget = 1000
            diag_extensions = 1
            workers = 2

            [output]
            csv = out.csv
            summary = out.txt
            """
        )
    )
    assert cfg.q == 4 and cfg.modulus == (1, 1, 1)
    assert cfg.effective_r_max == 2 and cfg.workers == 2
    assert cfg.diag_extensions == (1,)
    assert cfg.csv_path == "out.csv" and cfg.summary_path == "out.txt"
    spec = build_family(cfg)
    assert spec.kind == "custom" and spec.field.q == 4


def test_q_not_above_d_is_rejected():
    text = MINIMAL.replace("p = 7", "p = 3")
    with pytest.raises(ValidationError, match="q > d required"):
        parse_config(text)


def test_d_below_m_plus_two_is_rejected():
    text = MINIMAL.replace("d = 4", "d = 2").replace("forms = A3", "forms = A1")
    with pytest.raises(ValidationError, match="d >= m\\+2"):
        parse_config(text)


def test_r_max_above_d_is_rejected():
    text = MINIMAL + "\n[run]\nr_max = 5\n"
    with pytest.raises(ValidationError, match="r_max"):
        parse_config(text)


def test_empty_diag_extensions_is_rejected():
    # an empty list would leave both regularity reports without a reason
    for value in ("", " , "):
        text = MINIMAL + f"\n[run]\ndiag_extensions = {value}\n"
        with pytest.raises(ValidationError, match="at least one extension degree"):
            parse_config(text)


def test_malformed_expression_reports_position():
    text = MINIMAL.replace("forms = A3", "forms = A3 +")
    with pytest.raises(ParseError) as exc:
        parse_config(text)
    assert "col" in str(exc.value)


def test_value_error_without_column_names_only_the_line():
    with pytest.raises(ParseError) as exc:
        parse_config(MINIMAL.replace("p = 7", "p = seven"))
    assert str(exc.value) == "line 2: key field.p expects an integer, got 'seven'"


def test_grammar_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_config("p = 7\n")  # key outside any section
    with pytest.raises(ParseError, match="line 2"):
        parse_config("[field]\n[oops\n")
    with pytest.raises(ParseError, match="unknown section"):
        parse_config("[fields]\np = 7\n")
    with pytest.raises(ParseError, match="unknown key"):
        parse_config("[field]\nprime = 7\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_config("[field]\np = 7\np = 11\n")
    with pytest.raises(ParseError, match="integer"):
        parse_config("[field]\np = seven\n")
    with pytest.raises(ParseError, match="key = value"):
        parse_config("[field]\njust some words\n")


def test_missing_required_keys():
    with pytest.raises(ValidationError, match="field.p"):
        parse_config("[family]\nd = 4\nm = 1\nforms = A3\n")
    with pytest.raises(ValidationError, match="family.d"):
        parse_config("[field]\np = 7\n[family]\nm = 1\nforms = A3\n")


def test_kind_and_form_count_validation():
    with pytest.raises(ValidationError, match="kind"):
        parse_config(MINIMAL.replace("kind = linear", "kind = affine"))
    with pytest.raises(ValidationError, match="number of forms"):
        parse_config(MINIMAL.replace("m = 1", "m = 2"))
    with pytest.raises(ValidationError, match="forms"):
        parse_config(MINIMAL.replace("forms = A3", "forms ="))
    with pytest.raises(ValidationError, match="workers"):
        parse_config(MINIMAL + "\n[run]\nworkers = 0\n")


def test_symmetric_requirements():
    base = dedent(
        """\
        [field]
        p = 7

        [family]
        kind = symmetric
        d = 6
        m = 1
        """
    )
    with pytest.raises(ValidationError, match="s_count"):
        parse_config(base + "S = Y1\n")
    with pytest.raises(ValidationError, match="family.S"):
        parse_config(base + "s_count = 1\n")
    with pytest.raises(ValidationError, match="shapes"):
        parse_config(base + "s_count = 1\nS = Y1; Y1\n")
    cfg = parse_config(base + "s_count = 1\nS = Y1\n")
    spec = build_family(cfg)
    assert spec.kind == "symmetric" and spec.degrees == (1,)


def test_linear_rank_check_propagates():
    text = MINIMAL.replace("m = 1", "m = 2").replace("forms = A3", "forms = A3; A3")
    with pytest.raises(RankDeficient):
        parse_config(text)


def test_reducible_modulus_propagates():
    text = dedent(
        """\
        [field]
        p = 2
        s = 2
        modulus = 1, 0, 1

        [family]
        kind = custom
        d = 3
        m = 1
        forms = A2
        """
    )
    with pytest.raises(ReducibleModulus):
        parse_config(text)


def test_shipped_sample_configs_parse():
    root = Path(__file__).resolve().parent.parent / "configs"
    names = sorted(p.name for p in root.glob("*.cfg"))
    assert names == [
        "linear_q11_d4.cfg",
        "quadratic_q7_d4.cfg",
        "symmetric_q7_d6.cfg",
    ]
    for name in names:
        cfg = parse_config((root / name).read_text(encoding="utf-8"))
        assert build_family(cfg).field.q == cfg.q


def test_grammar_doc_lists_the_parsed_keys():
    # the doc's "Sections and keys" block names, section by section, exactly
    # the keys the parser's table reads
    doc = Path(__file__).resolve().parent.parent / "docs" / "config_grammar.txt"
    text = doc.read_text(encoding="utf-8")
    block = text.split("Sections and keys\n", 1)[1].split("\nExpression syntax", 1)[0]
    documented = {}
    section = None
    for line in block.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line):
            section = documented.setdefault(header[1], set())
        elif entry := re.match(r" {4}(\w+) ", line):
            section.add(entry[1])
    table = {}
    for key in _KEYS:
        name, _, field = key.partition(".")
        table.setdefault(name, set()).add(field)
    assert documented == table
