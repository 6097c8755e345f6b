"""Unit + golden tests for the extraction pipeline (SURVEY.md §2.3 P2-P17)."""

import random

import numpy as np
import pytest

from engine.extract import (
    CHAR_WIDTH,
    Line,
    PageLines,
    _round_to,
    _should_merge,
    build_lines,
    compute_column_anchors,
    convert_pages_to_markdown,
    detect_repeating_lines,
    escape_md,
    extract_document,
    extract_table_with_anchors,
    is_noise,
    logical_name_from_url,
    parse_header_and_title,
    parse_layout,
    render_table,
    slice_into_columns,
    DEFAULT_OPTIONS,
)


def _line(text, y=700.0):
    left = []
    x = 72.0
    for w in text.split():
        left.append(x)
        x += CHAR_WIDTH * len(w) + 4.0
    return Line(y, text, left, text.split())


def _page(texts, number=1):
    return PageLines(number, 792.0, [_line(t, 700.0 - 14 * i) for i, t in enumerate(texts)])


# ---------------------------------------------------------------------- P2

def test_round_to_bankers():
    # Math.Round / Python round: banker's rounding at .5
    assert _round_to(1.0, 2.0) == 0.0   # 0.5 -> 0
    assert _round_to(3.0, 2.0) == 4.0   # 1.5 -> 2
    assert _round_to(5.0, 2.0) == 4.0   # 2.5 -> 2
    assert _round_to(7.1, 2.0) == 8.0


def test_build_lines_grouping_and_order():
    rows = [
        (120.0, 700.0, "world"),
        (72.0, 700.6, "hello"),   # same quantized line (700.6/2 -> 350.3 -> 350 -> 700)
        (72.0, 650.0, "below"),
        (72.0, 720.0, "top"),
        (90.0, 650.0, "  "),      # whitespace word dropped
    ]
    left, mid_y, texts = zip(*rows)
    pl = build_lines(1, 792.0, (np.array(left), np.array(mid_y), list(texts)), 2.0)
    assert [l.text for l in pl.lines] == ["top", "hello world", "below"]
    assert pl.lines[1].words[0].text == "hello"
    assert pl.lines[1].words[0].right == 72.0 + CHAR_WIDTH * 5


# ---------------------------------------------------------------------- P3

def test_detect_repeating_multipage():
    p1 = _page(["Banner", "a b c", "x", "y", "z", "w", "q", "Footer"])
    p2 = _page(["Banner", "different", "u", "v", "m", "n", "o", "Footer"], 2)
    p3 = _page(["Banner", "other", "g", "h", "i", "j", "k", "Footer"], 3)
    rep = detect_repeating_lines([p1, p2, p3], 0.6)
    assert "banner" in rep and "footer" in rep
    assert "a b c" not in rep


def test_detect_repeating_single_page_drops_top_and_bottom():
    # pages.Count == 1 -> min_hits = 1: every first-4/last-4 line is "repeating"
    # (a faithful reference quirk, PdfToMarkdownConverter.cs:320).
    p = _page([f"l{i}" for i in range(10)])
    rep = detect_repeating_lines([p], 0.6)
    assert rep == {"l0", "l1", "l2", "l3", "l6", "l7", "l8", "l9"}


# ---------------------------------------------------------------------- P4

def test_noise_filter():
    assert is_noise("Page: 3 of 12")
    assert is_noise("CLG-EN-PR-0175 Page: 2 of 4")  # inline page-of
    assert is_noise("  Revision: B  ")
    assert is_noise("This document contains proprietary information of X")
    assert is_noise("uncontrolled if printed somewhere")
    assert is_noise("CUI//SP-PRIV basic")
    assert not is_noise("Normal sentence here")
    assert not is_noise("")


# ---------------------------------------------------------------------- P17

def test_escape_md():
    assert escape_md(" a|b*c_d ") == "a\\|b\\*c\\_d"


# ---------------------------------------------------------------------- P16

def test_should_merge():
    assert _should_merge("the operator shall record", "values in the log")
    assert not _should_merge("ends with period.", "values continue")
    assert not _should_merge("no punctuation", "Capitalized next")
    assert not _should_merge("no punctuation", "6.1 heading next")
    assert not _should_merge("no punctuation", "a. list item")
    assert not _should_merge("no punctuation", "- bullet")
    assert not _should_merge("", "x")


# ---------------------------------------------------------------------- P5

def _header_page(lines):
    return _page(lines)


def test_header_variant_full_grid_with_title():
    page = _header_page(
        [
            "Acme Industrial h0",
            "Standard Operating Procedure",
            "Document No.: Page:",
            "CLG-EN-PR-0042 1 of 3",
            "Facility Access Procedure",
            "Effective Date: Revision:",
            "06/08/2023 G",
            "Accountable Organization:",
            "Engineering Team John Smith",
            "Management Approval:",
            "Jane Doe",
            "Source: Internal",
        ]
    )
    header, header_lines, title = parse_header_and_title(page)
    assert title == "Facility Access Procedure"
    assert header["doc"] == "CLG-EN-PR-0042"
    assert header["eff"] == "06/08/2023"
    assert header["rev"] == "G"
    assert header["src"] == "Internal"
    assert "Standard Operating Procedure" in header_lines
    assert "Facility Access Procedure" in header_lines


def test_header_variant_inline():
    page = _header_page(
        [
            "Standard Operating Procedure",
            "Document No.: CLG-EN-PR-0007",
            "Effective Date: 11/02/2024",
            "Revision: C",
            "Accountable Organization: Quality Group",
            "Management Approval: Alan Turing",
            "Source: Intranet",
        ]
    )
    header, _hl, title = parse_header_and_title(page)
    assert header == {
        "doc": "CLG-EN-PR-0007",
        "eff": "11/02/2024",
        "rev": "C",
        "org": "Quality Group",
        "appr": "Alan Turing",
        "src": "Intranet",
    }
    assert title is None


def test_header_name_split_is_leftmost_match():
    # cs:576 — C# Regex.Match finds the LEFTMOST name-shaped suffix start, so
    # "Engineering Team John Smith" splits as org="Engineering", appr="Team John Smith".
    page = _header_page(
        [
            "Standard Operating Procedure",
            "Document No.: Page:",
            "CLG-EN-PR-0042 1 of 2",
            "Some Title Here",
            "Effective Date: Revision:",
            "03/04/2024 C",
            "Accountable Organization: Page:",
            "Engineering Team John Smith",
            "Management Approval:",
        ]
    )
    header, _hl, title = parse_header_and_title(page)
    assert header["org"] == "Engineering"
    assert header["appr"] == "Team John Smith"
    assert title == "Some Title Here"


def test_header_fold_key_value_rows():
    page = _header_page(
        [
            "Standard Operating Procedure",
            "Document No.:",
            "CLG-EN-PR-0099",
            "Ignored Title Words",
            "Effective Date:",
            "06/08/2023 G",
            "Source: Internal",
        ]
    )
    header, _hl, title = parse_header_and_title(page)
    # Folding rewrites "Document No.:\nVALUE" into one line; doc is recovered by
    # the final Key:value pass.  The stale effective-date index then points past
    # the folded row, and the combined value "06/08/2023 G" fails the strict
    # ^\d{2}/\d{2}/\d{4}$ check in the Key:value pass — so eff/rev are LOST and
    # no title is recovered.  Faithful to the reference's stale-index quirk
    # (cs:428-433 indices vs cs:451-461 mutation).
    assert header["doc"] == "CLG-EN-PR-0099"
    assert "eff" not in header and "rev" not in header
    assert header["src"] == "Internal"
    assert title is None


def test_header_empty_page():
    header, hl, title = parse_header_and_title(None)
    assert header == {} and title is None


# ---------------------------------------------------------------------- P9-P15

def _table_line(cells, y):
    # cells: list of (anchor_x, word) tuples
    return Line(y, " ".join(w for _x, w in cells), [x for x, _w in cells], [w for _x, w in cells])


def test_table_extraction_with_wrapped_row():
    anchors = [72.0, 160.0, 300.0]
    body = [
        _table_line([(72.0, "Step"), (160.0, "Responsibility"), (300.0, "Action")], 700),
        _table_line([(72.0, "A"), (160.0, "Operator"), (300.0, "press"), (340.0, "start")], 686),
        _table_line([(72.0, "B"), (160.0, "Supervisor"), (300.0, "verify"), (340.0, "gauge")], 672),
        _table_line([(300.0, "and"), (330.0, "log"), (355.0, "it")], 658),  # wrapped
        _line("7.0 Records", 644),
    ]
    got = compute_column_anchors(body, 0, 8, DEFAULT_OPTIONS)
    assert got == anchors
    rows, consumed = extract_table_with_anchors(body, 0, got)
    assert consumed == 4
    assert rows[0] == ["Step", "Responsibility", "Action"]
    assert rows[1] == ["A", "Operator", "press start"]
    # the wrapped row's empty Responsibility cell joins as an extra space —
    # string.Join(" ", cols.Skip(1)) in the reference (cs:726) keeps it
    assert rows[2] == ["B", "Supervisor", "verify gauge  and log it"]
    md = render_table(rows)
    assert md.splitlines()[1] == "| --- | --- | --- |"


def test_table_block_stops_at_numeric_step():
    # A data row like "1 Operator ..." matches the numbered-heading regex and
    # terminates the block (faithful quirk of cs:707).
    anchors = [72.0, 160.0, 300.0]
    body = [
        _table_line([(72.0, "Step"), (160.0, "Responsibility"), (300.0, "Action")], 700),
        _table_line([(72.0, "1"), (160.0, "Operator"), (300.0, "press")], 686),
    ]
    rows, consumed = extract_table_with_anchors(body, 0, anchors)
    assert rows == [] and consumed == 1


def test_slice_into_columns_nearest_anchor():
    anchors = [72.0, 160.0, 300.0]
    ln = _table_line([(100.0, "near0"), (240.0, "near2")], 700)
    assert slice_into_columns(ln, anchors) == ["near0", "", "near2"]


# ---------------------------------------------------------------------- core

def test_convert_minimal_document():
    pages = [
        _page(
            [
                "Header Banner",
                "filler one",
                "filler two",
                "filler three",
                "1.0 Purpose",
                "The operator shall record",
                "values in the logbook daily.",
                "2.1 Scope",
                "3.1.1 Deep",
                "tail one",
                "tail two",
                "tail three",
                "tail four",
            ]
        )
    ]
    md, header, title = convert_pages_to_markdown(pages, "doc-x")
    # single-page quirk removes first-4/last-4 lines
    assert md.startswith("# doc-x\n")
    assert "## 1.0 Purpose" in md
    assert "### 2.1 Scope" in md
    assert "#### 3.1.1 Deep" in md
    assert "The operator shall record values in the logbook daily." in md
    assert md.endswith("\n") and not md.endswith("\n\n")


def test_heading_level_capped_at_6():
    pages = [_page(["a", "b", "c", "d", "1.2.3.4.5.6.7 Deep heading", "x", "y", "z", "w"])]
    md, _h, _t = convert_pages_to_markdown(pages, "n")
    assert "###### 1.2.3.4.5.6.7 Deep heading" in md


def test_logical_name_from_url():
    assert logical_name_from_url("https://h0.example.test/d1/p5.html") == "p5"
    assert logical_name_from_url("https://h0.example.test/") == "document"
    assert logical_name_from_url("https://h.x/a/b.tar.gz?q=1#f") == "b.tar"


def test_extract_document_deterministic_and_layout_roundtrip(small_corpus):
    from engine.synth import CorpusConfig, build_assignment, build_page_html, url_of

    cfg = CorpusConfig(n_pages=50, n_hosts=10)
    assign = build_assignment(cfg)
    for rid in range(10):
        url = url_of(rid, assign)
        html = build_page_html(rid, cfg, assign).encode()
        d1 = extract_document(html, url)
        d2 = extract_document(html, url)
        assert d1 == d2
        pages, hrefs = parse_layout(html)
        assert len(pages) >= 1
        assert d1["markdown"].endswith("\n")


# Digests of extract_document over two seeded corpora, computed before the
# extractor went columnar: any change to markdown, title, header fields or
# hrefs, on either payload path, changes them.
_PINNED_DIGESTS = {
    "html": (300, 4, "87c520e707c9089dc3b81be225750a64ee4263ef596756625a9a92275b404935"),
    "pdf_flate": (200, 2, "1cb89e438b036ae103719a332ce0a9e4723a9fdd23c5bc61021eecf62d8513aa"),
}


@pytest.mark.parametrize("encoding", sorted(_PINNED_DIGESTS))
def test_extract_document_pinned_digest(encoding):
    import hashlib
    import json

    from engine.synth import CorpusConfig, build_assignment, build_page_html, build_page_pdf, url_of

    n, scale, expected = _PINNED_DIGESTS[encoding]
    cfg = CorpusConfig(n_pages=n, n_hosts=12, seed=9091, with_golden=False,
                       content_scale=scale, encoding=encoding)
    assign = build_assignment(cfg)
    h = hashlib.sha256()
    for rid in range(n):
        url = url_of(rid, assign)
        if encoding == "html":
            payload = build_page_html(rid, cfg, assign).encode("utf-8")
        else:
            payload = build_page_pdf(rid, cfg, assign, compress=True)
        d = extract_document(payload, url)
        h.update(json.dumps([url, d], sort_keys=True).encode("utf-8"))
    assert h.hexdigest() == expected
