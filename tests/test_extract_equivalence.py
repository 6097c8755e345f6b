"""The extractor's fast paths against reference implementations.

Each test runs a fast path and a plain reference on the same inputs and
requires identical results: ``is_noise``'s precompiled default path against
its per-pattern loop, the columnar ``build_lines`` against the dict-and-
``sorted`` grouping it replaced, the one-match-per-token ``_parse_content``
against the per-byte tokenizer it replaced, and the pass-through
``extract_batch_fn`` against the per-row-list docs builder it replaced.  The
three replaced versions are kept below verbatim as the references.
"""

import random
import re

import numpy as np
import pyarrow as pa
import pytest

from engine.canonicalize import canonicalize, host_of, path_of, url_hash64
from engine.crawl import DOCS_SCHEMA, _etag, extract_batch_fn
from engine.extract import (
    CHAR_WIDTH,
    DEFAULT_OPTIONS,
    ExtractOptions,
    build_lines,
    extract_document,
    is_noise,
    page_layout,
)
from engine.frontier import SEQ_STRIDE
from engine.pdf import (
    _IDENTITY,
    _NUM,
    _mat_mult,
    _parse_content,
    _read_hex_string,
    _read_literal_string,
    _translate,
)

# ----------------------------------------------------------------- is_noise

_NOISE_FRAGMENTS = (
    "Page: 3 of 12", "page:1of2", "Page : 7 of 9 ", "CLG-EN-PR-0175", "CLG-ſK-12 Page 3",
    "clg-a-1page2", "Revision: B", "revision : 1a", "REVISION:", "use, or", "use or", "Use ,or",
    "CUI", "cui//sp", "Controlled  Unclassified", "privacy act", "Sensitive but unclassified",
    "proprietary information", "PROPRIETARY INFORMATION", "unauthorized use", "Unauthorized\tuse",
    "use , reproduction , or distribution", "reproduction, or distribution",
    "uncontrolled if printed", "all rights reserved", "Copyright", "copyright ©",
    "This document contains proprietary information", "Before using this document, the reader is responsible",
    "ſ", "K", "İ", "ß", "ﬁ", "Σ", "١٢", "CUIs", "xCUI", "Pages: 1 of 2", "page", "of", "3",
)
_SEPARATORS = ("", " ", "  ", ":", "-", "\t", ", ")
_WORDS = ("the", "operator", "shall", "record", "values", "Step", "6.1", "A.", "log", "Source")


def _corpus_lines() -> list:
    from engine.synth import CorpusConfig, build_assignment, build_page_html

    cfg = CorpusConfig(n_pages=60, n_hosts=6, seed=5150, with_golden=False, content_scale=2)
    assign = build_assignment(cfg)
    lines = []
    for rid in range(cfg.n_pages):
        pages, _ = page_layout(build_page_html(rid, cfg, assign).encode("utf-8"))
        for num, h, words in pages:
            lines += [l.text for l in build_lines(num, h, words, 2.0).lines]
    return lines


def _fuzzed_lines(n: int, seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        parts = [rng.choice(_NOISE_FRAGMENTS + _WORDS) for _ in range(rng.randint(1, 4))]
        line = parts[0]
        for p in parts[1:]:
            line += rng.choice(_SEPARATORS) + p
        if rng.random() < 0.3:
            line = rng.choice(("", " ", "\n", "  ")) + line + rng.choice(("", " ", "\t"))
        if rng.random() < 0.2:
            line = line.upper() if rng.random() < 0.5 else line.lower()
        out.append(line)
    return out


def test_is_noise_default_path_equals_per_pattern_loop():
    per_pattern = ExtractOptions()
    assert per_pattern is not DEFAULT_OPTIONS  # takes the per-pattern loop
    lines = _corpus_lines() + _fuzzed_lines(20_000, seed=77)
    fast = [is_noise(l) for l in lines]
    slow = [is_noise(l, per_pattern) for l in lines]
    mismatches = [l for l, a, b in zip(lines, fast, slow) if a != b]
    assert not mismatches, mismatches[:10]
    assert 0.05 * len(lines) < sum(fast) < 0.95 * len(lines)


# ------------------------------------------------------------- build_lines

def _round_to_reference(value: float, tol: float) -> float:
    return round(value / tol) * tol


def _build_lines_reference(words: list, y_tol: float) -> list:
    """The dict-and-``sorted`` BuildLines over (left, mid_y, text) rows ->
    [(y, text, [(word, left, right)])]."""
    groups: dict = {}
    for left, mid_y, text in words:
        key = _round_to_reference(mid_y, y_tol)
        groups.setdefault(key, []).append((left, text))
    lines = []
    for key in sorted(groups.keys(), reverse=True):
        ws = []
        for left, text in sorted(groups[key], key=lambda t: t[0]):
            t = text.strip()
            if not t:
                continue
            ws.append((t, left, left + CHAR_WIDTH * len(t)))
        line_text = " ".join(w[0] for w in ws)
        if line_text.strip():
            lines.append((key, line_text, ws))
    return lines


def _random_page(rng: np.random.Generator, n: int, tol: float) -> list:
    texts = ("alpha", "Beta", "  ", "", "\t", " pad ", " ", "x y", "6.1", "Step", "é")
    lefts = np.where(rng.random(n) < 0.5, rng.choice([72.0, 120.0, 300.0], n),
                     np.round(rng.uniform(0.0, 600.0, n), 1))
    k = rng.integers(-3, 60, n)
    mids = np.select(
        [rng.random(n) < 0.4, rng.random(n) < 0.5],
        [tol * (k + 0.5), tol * k + rng.uniform(-0.2, 0.2, n)],  # half-steps, near-steps
        rng.uniform(-10.0, 800.0, n),
    )
    return [(float(x), float(y), texts[i]) for x, y, i in zip(lefts, mids, rng.integers(0, len(texts), n))]


@pytest.mark.parametrize("tol", [2.0, 1.5, 0.7, 3.0])
def test_build_lines_equals_dict_and_sorted_reference(tol):
    rng = np.random.default_rng(int(tol * 10))
    pages = [[], [(72.0, 700.0, "  "), (80.0, 700.0, "")]]  # empty and blank-only pages
    pages += [_random_page(rng, int(n), tol) for n in rng.integers(1, 400, 60)]
    for rows in pages:
        left, mid_y, texts = zip(*rows) if rows else ((), (), ())
        cols = (np.array(left, dtype=np.float64), np.array(mid_y, dtype=np.float64), list(texts))
        got = [(l.y, l.text, [(w.text, w.left, w.right) for w in l.words])
               for l in build_lines(1, 792.0, cols, tol).lines]
        assert got == _build_lines_reference(rows, tol)


# ---------------------------------------------------------- _parse_content

_CONTENT_TOKEN_RE_REFERENCE = re.compile(
    rb"(" + _NUM + rb")|(/[^\s/\[\]()<>]+)|(\[|\])|(BT|ET|Tf|Td|TD|Tm|TL|T\*|Tj|TJ|Tc|Tw|Tz|q|Q|cm|re|[fWnS])"
)


def _parse_content_reference(stream: bytes) -> list:
    """The per-byte tokenizer, verbatim -> [(left, mid_y, text)]."""
    words = []
    i = 0
    n = len(stream)
    stack: list = []  # operand stack: numbers, names, strings, arrays
    ctm = _IDENTITY
    gs_stack: list = []  # q/Q: (ctm, char_sp, word_sp, h_scale)
    tm = tlm = _IDENTITY  # text matrix / text line matrix (valid inside BT..ET)
    leading = 0.0
    char_sp = 0.0  # Tc
    word_sp = 0.0  # Tw
    h_scale = 1.0  # Tz / 100
    in_array = None

    def emit(s: str):
        nonlocal tm
        adv_char = (CHAR_WIDTH + char_sp) * h_scale
        adv_space = (CHAR_WIDTH + char_sp + word_sp) * h_scale
        for piece in s.split(" "):
            if piece:
                trm = _mat_mult(tm, ctm)
                words.append((trm[4], trm[5], piece))
                tm = _mat_mult(_translate(adv_char * len(piece), 0.0), tm)
            tm = _mat_mult(_translate(adv_space, 0.0), tm)

    while i < n:
        c = stream[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"(":
            s, i = _read_literal_string(stream, i)
            (in_array if in_array is not None else stack).append(s)
            continue
        if c == b"<":
            if stream[i + 1 : i + 2] == b"<":  # inline dict (e.g. BDC): skip open
                i += 2
                continue
            s, i = _read_hex_string(stream, i)
            (in_array if in_array is not None else stack).append(s)
            continue
        if c == b">" and stream[i + 1 : i + 2] == b">":  # inline dict close
            i += 2
            continue
        m = _CONTENT_TOKEN_RE_REFERENCE.match(stream, i)
        if not m:
            i += 1  # unknown byte: skip (defensive; real files stay in-grammar)
            continue
        i = m.end()
        num, name, bracket, op = m.group(1), m.group(2), m.group(3), m.group(4)
        if num is not None:
            (in_array if in_array is not None else stack).append(float(num))
        elif name is not None:
            stack.append(name.decode("latin-1"))
        elif bracket == b"[":
            in_array = []
        elif bracket == b"]":
            stack.append(in_array)
            in_array = None
        elif op is not None:
            o = op.decode("latin-1")
            if o == "Td" and len(stack) >= 2:
                ty, tx = stack.pop(), stack.pop()
                tm = tlm = _mat_mult(_translate(tx, ty), tlm)
            elif o == "TD" and len(stack) >= 2:
                ty, tx = stack.pop(), stack.pop()
                leading = -ty
                tm = tlm = _mat_mult(_translate(tx, ty), tlm)
            elif o == "Tm" and len(stack) >= 6:
                f_ = stack.pop()
                e_ = stack.pop()
                d_ = stack.pop()
                c_ = stack.pop()
                b_ = stack.pop()
                a_ = stack.pop()
                tm = tlm = (a_, b_, c_, d_, e_, f_)
            elif o == "TL" and stack:
                leading = stack.pop()
            elif o == "T*":
                tm = tlm = _mat_mult(_translate(0.0, -leading), tlm)
            elif o == "Tc" and stack:
                char_sp = stack.pop()
            elif o == "Tw" and stack:
                word_sp = stack.pop()
            elif o == "Tz" and stack:
                h_scale = stack.pop() / 100.0
            elif o == "cm" and len(stack) >= 6:
                mat = tuple(stack[-6:])
                stack = stack[:-6]
                ctm = _mat_mult(mat, ctm)
            elif o == "q":
                gs_stack.append((ctm, char_sp, word_sp, h_scale))
                stack = []
            elif o == "Q":
                if gs_stack:
                    ctm, char_sp, word_sp, h_scale = gs_stack.pop()
                stack = []
            elif o == "Tj" and stack:
                s = stack.pop()
                if isinstance(s, str):
                    emit(s)
            elif o == "TJ" and stack:
                arr = stack.pop()
                if isinstance(arr, list):
                    for el in arr:
                        if isinstance(el, str):
                            emit(el)
                        else:  # kerning: thousandths of text space (size-agnostic
                            # here: the fixed-metric model scales by CHAR_WIDTH*2)
                            tm = _mat_mult(
                                _translate(
                                    -float(el) / 1000.0 * CHAR_WIDTH * 2.0 * h_scale,
                                    0.0,
                                ),
                                tm,
                            )
            elif o in ("BT", "ET"):
                tm = tlm = _IDENTITY
                stack = []
            else:
                stack = []  # Tf/re/f/W/n/S: operands consumed, no-op
    return words


def _num(rng: random.Random) -> bytes:
    return rng.choice((b"%d" % rng.randint(-50, 800), b"%.1f" % rng.uniform(-50, 800),
                       b"%.3f" % rng.uniform(0, 2), b".5", b"-.25", b"+3", b"0"))


def _literal(rng: random.Random) -> bytes:
    body = rng.choice((b"Hello", b"two words", b"", b" lead", b"trail ", b"caf\xc3\xa9", b"\xff\xfe"))
    return b"(" + rng.choice((
        body,
        body + rb"\(esc\)",                # escaped parens
        rb"a\\b" + body,                   # escaped backslash
        rb"\101\102 \n" + body,            # octal and \n
        b"a\\\nb" + body,                  # line continuation
        b"out (in) " + body,               # nested balanced parens
        b"x (y (z)) " + body,
    )) + b")"


def _operation(rng: random.Random) -> bytes:
    return rng.choice((
        lambda: b"BT",
        lambda: b"ET",
        lambda: b"/F1 12 Tf",
        lambda: b"%s %s Td" % (_num(rng), _num(rng)),
        lambda: b"%s %s TD" % (_num(rng), _num(rng)),
        lambda: b"1 0 0 1 %s %s Tm" % (_num(rng), _num(rng)),
        lambda: b"%s TL T*" % _num(rng),
        lambda: b"%s Tc" % _num(rng),
        lambda: b"%s Tw" % _num(rng),
        lambda: b"%s Tz" % rng.choice((b"100", b"50", b"120.5")),
        lambda: b"1 0 0 1 %s %s cm" % (_num(rng), _num(rng)),
        lambda: b"q",
        lambda: b"Q",
        lambda: _literal(rng) + b" Tj",
        lambda: _literal(rng) + b"Tj",
        lambda: b"<48656C6C6F> Tj",
        lambda: b"<4 8 6> Tj",                        # whitespace, odd digit
        lambda: b"[" + _literal(rng) + b" -250 <4142>" + _literal(rng) + b"] TJ",
        lambda: b"[(a)%s(b)]TJ" % _num(rng),
        lambda: b"/P <</MCID 3>> BDC",
        lambda: b"EMC >> ] [",
        lambda: b"0 0 10 10 re f W n S",
        lambda: rng.choice((b"}", b"{", b"@", b"\x00", b">", b".", b"'", b"\"", b"Tx", b"-")),
    ))()


def _stream(rng: random.Random) -> bytes:
    out = []
    for _ in range(rng.randint(1, 40)):
        out.append(_operation(rng))
        out.append(rng.choice((b" ", b"\n", b"\r\n", b"\t", b"  \x0c ", b"")))
    return b"".join(out) + rng.choice((b"", b"\n", b"  \n\t "))


def _outcome(fn, stream: bytes):
    try:
        rows = fn(stream)
    except (ValueError, TypeError, IndexError, ZeroDivisionError) as e:
        return ("raised", type(e).__name__, str(e))
    return ("ok", [(float(x).hex(), float(y).hex(), t) for x, y, t in rows])


def _columns_as_rows(stream: bytes) -> list:
    left, mid_y, texts = _parse_content(stream)
    assert left.dtype == mid_y.dtype == np.float64
    return list(zip(left.tolist(), mid_y.tolist(), texts))


def test_parse_content_equals_per_byte_reference():
    rng = random.Random(2024)
    streams = [_stream(rng) for _ in range(3000)]
    streams += [
        b"",
        b"   \n",
        b"BT 1 0 0 1 72 700 Tm (Hello) Tj ET",
        b"BT 1 0 0 1 72 700 Tm (unterminated Tj ET",   # both raise
        b"BT (a (b) Tj ET",                            # unterminated nested
        b"BT <4142 Tj ET",                             # unterminated hex
        b"BT <zz> Tj ET",                              # bad hex digits
    ]
    outcomes = {"ok": 0, "raised": 0}
    words = 0
    for s in streams:
        want = _outcome(_parse_content_reference, s)
        assert _outcome(_columns_as_rows, s) == want, s
        outcomes[want[0]] += 1
        words += len(want[1]) if want[0] == "ok" else 0
    assert outcomes["ok"] > 1000 and outcomes["raised"] > 10
    assert words > 5000


# ------------------------------------------------------------ extract_batch_fn

def _extract_batch_fn_reference(batch: pa.Table, max_depth: int, with_markdown: bool = True) -> pa.Table:
    """Per-row extraction + link canonicalization (pure; safe under retries).

    Column-wise bulk conversion up front; the only per-row Python is the
    extraction itself (inherently per-document).  ``with_markdown=False`` is
    the pre-count mode (SURVEY.md §2.1 S3, ``CountDocumentsAsync``): links
    only, no markdown build."""
    urls_l = batch["url"].to_pylist()
    htmls_l = batch["html"].to_pylist()
    fseq_l = batch["fetch_seq"].to_pylist()
    round_l = batch["round"].to_pylist()
    depth_l = batch["depth"].to_pylist()
    prio_l = batch["priority"].to_pylist()
    retry_l = batch["retry"].to_pylist()
    out = {k: [] for k in (
        "url", "fetch_seq", "round", "depth", "priority", "retry",
        "status", "markdown", "title", "header_doc", "metadata", "links",
    )}
    for i in range(batch.num_rows):
        url = urls_l[i]
        html = htmls_l[i]
        out["url"].append(url)
        out["fetch_seq"].append(fseq_l[i])
        out["round"].append(round_l[i])
        depth = depth_l[i]
        out["depth"].append(depth)
        out["priority"].append(prio_l[i])
        out["retry"].append(retry_l[i])
        if html is None:
            out["status"].append("miss")
            out["markdown"].append(None)
            out["title"].append(None)
            out["header_doc"].append(None)
            out["metadata"].append([])
            out["links"].append([])
            continue
        if with_markdown:
            d = extract_document(html, url)
            hrefs = d["hrefs"]
            # open metadata map: all parsed header fields, string-typed,
            # only present keys (the GetValueOrDefault consumer reads
            # missing keys as null — M15)
            meta = [
                (k, d[f"header_{k}"])
                for k in ("doc", "eff", "rev", "org", "appr", "src")
                if d.get(f"header_{k}") is not None
            ]
        else:
            d = {"markdown": None, "title": None, "header_doc": None}
            meta = []
            _pages, hrefs = page_layout(html)
        links = []
        if depth < max_depth:
            for href in hrefs:
                # Spec: at most SEQ_STRIDE canonicalized links per page feed
                # the frontier — keeps discovery_seq unique per (parent, link)
                # so the total order has no scheduling-dependent ties (the
                # oracle truncates identically).
                if len(links) >= SEQ_STRIDE:
                    break
                cu = canonicalize(href, base=url)
                if cu is None:
                    continue
                links.append(
                    {
                        "url": cu,
                        "host": host_of(cu),
                        "path": path_of(cu),
                        "url_hash": url_hash64(cu),
                    }
                )
        out["status"].append("hit")
        out["markdown"].append(d["markdown"])
        out["title"].append(d["title"])
        out["header_doc"].append(d["header_doc"])
        out["metadata"].append(meta)
        out["links"].append(links)
    cols = {
        name: pa.array(vals, DOCS_SCHEMA.field(name).type) for name, vals in out.items()
    }
    # change-detection columns ride along column-wise: url_hash from the
    # frontier row, etag = content hash, last_modified = the page's warc_ts
    cols["url_hash"] = batch["url_hash"].combine_chunks()
    cols["etag"] = pa.array(
        [None if h is None else _etag(h) for h in htmls_l], pa.string()
    )
    cols["last_modified"] = (
        batch["warc_ts"].combine_chunks().cast(pa.timestamp("us"))
        if "warc_ts" in batch.column_names
        else pa.nulls(batch.num_rows, pa.timestamp("us"))
    )
    return pa.table({f.name: cols[f.name] for f in DOCS_SCHEMA}, schema=DOCS_SCHEMA)


def _fetched_feed() -> pa.Table:
    """A feed as ``fetch_bucket_group`` returns it: HTML and FlateDecode PDF
    pages, duplicate urls, misses (null html and warc_ts), non-zero retry,
    depths 0-3, and one HTML and one PDF page with more than SEQ_STRIDE
    links; two chunks per column."""
    from engine.frontier import FRONTIER_SCHEMA, frontier_row
    from engine.pdf import render_pdf_page_bytes
    from engine.synth import (
        CorpusConfig, build_assignment, build_page_html, build_page_pdf, url_of,
    )

    cfg = CorpusConfig(n_pages=12, n_hosts=3, seed=4711, with_golden=False)
    assign = build_assignment(cfg)
    many = [f"https://fan{i % 3}.example.test/d/p{i}.html" for i in range(SEQ_STRIDE + 77)]
    payloads = [(url_of(r, assign), build_page_html(r, cfg, assign).encode()
                 if r % 2 else build_page_pdf(r, cfg, assign, compress=True))
                for r in range(cfg.n_pages)]
    payloads += [
        ("https://fan.example.test/many.html",
         ("<html><body><nav>" + "".join(f'<a href="{u}">l</a>' for u in many)
          + "</nav></body></html>").encode()),
        ("https://fan.example.test/many.pdf",
         render_pdf_page_bytes([(1, 792.0, [(72.0, 700.0, "Links")])], many, compress=True)),
        ("https://dead.example.test/a.html", None),
        ("https://dead.example.test/b.html", None),
    ]
    payloads += [payloads[1], payloads[2], payloads[-1]]  # duplicate urls
    n = len(payloads)
    feed = pa.Table.from_pylist(
        [frontier_row(u, i % 4, i % 3, 10 * i, retry=int(i % 5 == 0))
         for i, (u, _) in enumerate(payloads)],
        schema=FRONTIER_SCHEMA,
    )
    feed = (
        feed.append_column("fetch_seq", pa.array(range(500, 500 + n), pa.int64()))
        .append_column("round", pa.array([3] * n, pa.int32()))
        .append_column("wait_s", pa.array([0.0] * n, pa.float64()))
        .append_column("bucket", pa.array([1] * n, pa.int32()))
        .append_column("html", pa.array([h for _, h in payloads], pa.binary()))
        .append_column("warc_ts", pa.array(
            [None if h is None else 1_700_000_000_000_000 + i for i, (_, h) in enumerate(payloads)],
            pa.timestamp("us")))
    )
    return pa.concat_tables([feed.slice(0, 7), feed.slice(7)])


@pytest.mark.parametrize("with_markdown", [True, False])
@pytest.mark.parametrize("max_depth", [0, 2, 50])
def test_extract_batch_fn_equals_per_row_list_reference(max_depth, with_markdown):
    feed = _fetched_feed()
    got = extract_batch_fn(feed, max_depth, with_markdown=with_markdown)
    want = _extract_batch_fn_reference(feed, max_depth, with_markdown=with_markdown)
    assert got.schema.equals(want.schema, check_metadata=True)
    assert got.equals(want)
    status = got["status"].to_pylist()
    assert status.count("miss") == 3 and status.count("hit") == feed.num_rows - 3
    longest = max(len(links) for links in got["links"].to_pylist())
    assert longest == (SEQ_STRIDE if max_depth else 0)
