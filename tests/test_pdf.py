"""From-scratch PDF reader/writer tests (VERDICT r1 next-round #3).

The contract: a corpus row rendered as an uncompressed PDF extracts
byte-identically to its HTML-layout twin through the shared
build_lines -> convert_pages_to_markdown pipeline, and the crawl runs
end-to-end over a pdf-encoded corpus.
"""

import numpy as np
import pytest


def _rows(words):
    """A page's word columns (left, mid_y, texts) as (left, mid_y, text) rows."""
    left, mid_y, texts = words
    return list(zip(left.tolist(), mid_y.tolist(), texts))


def _layout_rows(layout):
    """parse_pdf_layout output with each page's words as rows."""
    pages, hrefs = layout
    return [(n, h, _rows(words)) for n, h, words in pages], hrefs


# ---------------------------------------------------------------- reader unit

def test_content_stream_operators():
    """Td/TD/Tm/TL/T*/Tj/TJ positioning semantics."""
    from engine.extract import CHAR_WIDTH
    from engine.pdf import _parse_content

    stream = b"""BT /F1 12 Tf
1 0 0 1 72.0 700.0 Tm (Hello) Tj
1 0 0 1 120.0 700.0 Tm (World) Tj
72.0 650.0 Td (LineA) Tj
0 -14 Td (LineB) Tj
14 TL
1 0 0 1 72.0 600.0 Tm (TopC) Tj
T* (NextC) Tj
ET"""
    words = _rows(_parse_content(stream))
    d = {w: (x, y) for x, y, w in words}
    assert d["Hello"] == (72.0, 700.0)
    assert d["World"] == (120.0, 700.0)
    # Td is relative to the line start (which Tm set to 120,700)
    assert d["LineA"] == (192.0, 1350.0)
    assert d["LineB"] == (192.0, 1336.0)
    assert d["TopC"] == (72.0, 600.0)
    assert d["NextC"] == (72.0, 586.0)  # T* moved down by the 14 leading

    tj = _rows(_parse_content(b"BT 1 0 0 1 10.0 20.0 Tm [(ab) -500 (cd)] TJ ET"))
    assert tj[0] == (10.0, 20.0, "ab")
    # after "ab": x = 10 + CHAR_WIDTH*3, then kerning -(-500)/1000*CHAR_WIDTH*2
    assert tj[1][2] == "cd"
    assert tj[1][0] == pytest.approx(10.0 + CHAR_WIDTH * 3 + 0.5 * CHAR_WIDTH * 2)


def test_string_escapes_roundtrip():
    from engine.pdf import _escape_pdf_string, _read_literal_string

    for s in ("plain", "with (parens)", "back\\slash", "mix (a\\b) c", "octal\x07x"):
        enc = b"(" + _escape_pdf_string(s) + b")"
        got, end = _read_literal_string(enc, 0)
        assert got == s
        assert end == len(enc)
    # nested balanced parens without escapes are legal PDF
    got, _ = _read_literal_string(b"(a (nested) b)", 0)
    assert got == "a (nested) b"
    # octal escape
    got, _ = _read_literal_string(rb"(\101\102)", 0)
    assert got == "AB"


def test_writer_reader_roundtrip_boxes_and_hrefs():
    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [
        (1, 792.0, [(72.0, 760.0, "Alpha"), (120.0, 760.0, "Beta"), (72.0, 746.0, "Gamma")]),
        (2, 792.0, [(72.0, 760.0, "Delta")]),
    ]
    hrefs = ["https://a.test/x.html", "https://b.test/y.html?q=(1)"]
    data = render_pdf_page_bytes(pages, hrefs)
    assert data.startswith(b"%PDF-1.4")
    assert data.rstrip().endswith(b"%%EOF")
    got_pages, got_hrefs = _layout_rows(parse_pdf_layout(data))
    assert got_hrefs == hrefs
    assert [(n, h) for n, h, _ in got_pages] == [(1, 792.0), (2, 792.0)]
    assert got_pages[0][2] == pages[0][2]
    assert got_pages[1][2] == pages[1][2]


def test_flate_writer_reader_roundtrip():
    """compress=True emits /FlateDecode streams; the reader inflates them and
    recovers identical word boxes + hrefs (VERDICT r2 next-round #3)."""
    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [
        (1, 792.0, [(72.0, 760.0, "Alpha"), (120.0, 760.0, "Beta")]),
        (2, 792.0, [(72.0, 760.0, "Delta"), (72.0, 746.0, "Eps")]),
    ]
    hrefs = ["https://a.test/x.html"]
    data = render_pdf_page_bytes(pages, hrefs, compress=True)
    assert b"/FlateDecode" in data
    assert b"Alpha" not in data  # text really is compressed
    got_pages, got_hrefs = _layout_rows(parse_pdf_layout(data))
    assert got_hrefs == hrefs
    assert got_pages[0][2] == pages[0][2]
    assert got_pages[1][2] == pages[1][2]
    # compressed and uncompressed encodings parse identically
    plain_pages, plain_hrefs = _layout_rows(parse_pdf_layout(render_pdf_page_bytes(pages, hrefs)))
    assert (got_pages, got_hrefs) == (plain_pages, plain_hrefs)


def _one_page_pdf(contents_objs: bytes, contents_ref: bytes) -> bytes:
    return (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Contents " + contents_ref + b" >>\nendobj\n"
        + contents_objs + b"%%EOF\n"
    )


def _two_part_pdf(first: bytes, second: bytes) -> bytes:
    return _one_page_pdf(
        b"4 0 obj\n<< /Length %d >>\nstream\n" % len(first) + first + b"\nendstream\nendobj\n"
        b"5 0 obj\n<< /Length %d >>\nstream\n" % len(second) + second + b"\nendstream\nendobj\n",
        b"[4 0 R 5 0 R]",
    )


@pytest.mark.parametrize(
    "first, second, want",
    [
        # the text matrix set in part 1 positions the string shown in part 2
        (b"BT 1 0 0 1 72.0 700.0 Tm", b"(Hello) Tj ET", (72.0, 700.0, "Hello")),
        # the CTM composed in part 1 still applies in part 2
        (b"q 1 0 0 1 10 20 cm", b"BT 1 0 0 1 72 700 Tm (Hi) Tj ET Q", (82.0, 720.0, "Hi")),
    ],
)
def test_contents_array_parts_are_one_stream(first, second, want):
    """The parts of a /Contents array form ONE content stream (ISO 32000
    7.8.2), so text and graphics state carry across a part boundary."""
    from engine.pdf import parse_pdf_layout

    pages, _ = _layout_rows(parse_pdf_layout(_two_part_pdf(first, second)))
    assert pages == [(1, 792.0, [want])]


def test_image_stream_skipped_not_raised():
    """A DCT (image-class) stream in the content chain is SKIPPED by the
    text extractor, never a document abort (VERDICT r3 next-round #7) —
    while genuinely unsupported non-image filters still raise honestly."""
    from engine.pdf import parse_pdf_layout

    # image-only contents: document extracts with zero words
    pages, hrefs = _layout_rows(parse_pdf_layout(_one_page_pdf(
        b"4 0 obj\n<< /Length 2 /Filter /DCTDecode >>\nstream\nxx\nendstream\nendobj\n",
        b"4 0 R",
    )))
    assert pages == [(1, 792.0, [])] and hrefs == []

    # mixed contents ARRAY: the text part extracts, the image part is skipped
    text = b"BT 1 0 0 1 72.0 700.0 Tm (Hello) Tj ET"
    pages, _ = _layout_rows(parse_pdf_layout(_one_page_pdf(
        b"4 0 obj\n<< /Length %d >>\nstream\n" % len(text) + text + b"\nendstream\nendobj\n"
        b"5 0 obj\n<< /Length 2 /Filter /CCITTFaxDecode >>\nstream\nxx\nendstream\nendobj\n",
        b"[4 0 R 5 0 R]",
    )))
    assert pages == [(1, 792.0, [(72.0, 700.0, "Hello")])]

    # a non-image unsupported filter keeps the honest boundary
    with pytest.raises(NotImplementedError, match="Crypt"):
        parse_pdf_layout(_one_page_pdf(
            b"4 0 obj\n<< /Length 2 /Filter /Crypt >>\nstream\nxx\nendstream\nendobj\n",
            b"4 0 R",
        ))


def test_hex_strings():
    """<...> hex strings in content streams and /URI values (ISO 32000
    7.3.4.3: whitespace ignored, odd final digit zero-padded)."""
    from engine.pdf import _parse_content, _read_hex_string

    assert _read_hex_string(b"<48656C6C6F>", 0) == ("Hello", 12)
    assert _read_hex_string(b"<48 65 6C\n6C 6F>", 0)[0] == "Hello"
    assert _read_hex_string(b"<5>", 0)[0] == "P"  # odd digit -> 0x50
    words = _rows(_parse_content(b"BT 1 0 0 1 10.0 20.0 Tm <48656C6C6F> Tj ET"))
    assert words == [(10.0, 20.0, "Hello")]
    arr = _rows(_parse_content(b"BT 1 0 0 1 0.0 0.0 Tm [<4142> (cd)] TJ ET"))
    assert [w for _, _, w in arr] == ["AB", "cd"]


# ------------------------------------------------------- encoding equivalence

def test_pdf_extraction_byte_identical_to_html():
    """Every corpus row extracts byte-identically from both encodings
    (markdown, title, header fields, hrefs) — the goldens run on PDF bytes."""
    from engine.extract import extract_document
    from engine.synth import (
        CorpusConfig,
        build_assignment,
        build_page_html,
        build_page_pdf,
        url_of,
    )

    cfg = CorpusConfig(n_pages=120, n_hosts=12)
    assign = build_assignment(cfg)
    sop_seen = table_seen = False
    for rid in range(120):
        u = url_of(rid, assign)
        dh = extract_document(build_page_html(rid, cfg, assign).encode(), u)
        dp = extract_document(build_page_pdf(rid, cfg, assign), u)
        df = extract_document(build_page_pdf(rid, cfg, assign, compress=True), u)
        dx = extract_document(build_page_pdf(rid, cfg, assign, xref_stream=True), u)
        assert dh == dp, u
        assert dh == df, u  # flate-encoded twin extracts identically too
        assert dh == dx, u  # PDF 1.5 ObjStm/xref-stream twin as well
        sop_seen |= dh["header_doc"] is not None
        table_seen |= "| Step |" in (dh["markdown"] or "")
    assert sop_seen and table_seen  # the hard extractor paths were exercised


def test_extract_pdf_document_entry():
    from engine.extract import extract_document, extract_pdf_document
    from engine.synth import CorpusConfig, build_assignment, build_page_pdf, url_of

    cfg = CorpusConfig(n_pages=10, n_hosts=4)
    assign = build_assignment(cfg)
    pdf = build_page_pdf(3, cfg, assign)
    u = url_of(3, assign)
    assert extract_pdf_document(pdf, u) == extract_document(pdf, u)
    with pytest.raises(ValueError, match="%PDF-"):
        extract_pdf_document(b"<html></html>", u)


# ------------------------------------------------------------- crawl over pdf

def test_crawl_over_pdf_corpus_matches_oracle(tmp_path, ray_session):
    """End-to-end: generate a pdf-encoded corpus, crawl it, conformance vs
    the sequential oracle (which extracts the same PDF bytes)."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle
    from engine.synth import CorpusConfig, generate_corpus

    corpus = str(tmp_path / "pdf_corpus")
    generate_corpus(
        corpus,
        CorpusConfig(n_pages=200, n_hosts=8, n_buckets=4, encoding="pdf"),
        use_ray=False,
    )
    budget = {"max_urls_total": 150, "max_per_host_per_round": 5, "max_depth": 5, "max_rounds": 6}
    oracle = crawl_oracle(corpus, budget)
    engine = crawl(corpus, str(tmp_path / "ckpt_pdf"), budget)
    assert engine.cumulative == oracle["cumulative"]
    assert engine.cumulative["fetched"] > 30
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    assert set(engine.seen_hashes().tolist()) == oracle["seen_hashes"]
    # extracted markdown matches the corpus golden text per url
    import os
    from glob import glob

    import pyarrow.parquet as pq

    golden = {}
    for f in glob(os.path.join(corpus, "pages", "bucket=*", "*.parquet")):
        t = pq.read_table(f, columns=["url", "text"])
        golden.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    docs = engine.docs_dataset().to_pandas()
    hits = docs[docs.status == "hit"]
    for u, m in zip(hits.url, hits.markdown):
        assert golden[u] == m, u


def test_text_state_spacing_operators():
    """Tc/Tw/Tz advance semantics (ISO 32000 9.3): char spacing widens every
    char advance, word spacing every space advance, Tz scales horizontally."""
    from engine.extract import CHAR_WIDTH
    from engine.pdf import _parse_content

    # baseline: two words, advance = CHAR_WIDTH * (len + 1 space)
    base = _rows(_parse_content(b"BT 1 0 0 1 0 0 Tm (ab cd) Tj ET"))
    assert base[1][0] == CHAR_WIDTH * 3

    # Tc 2: each char advance grows by 2 -> second word at (CW+2)*3
    tc = _rows(_parse_content(b"BT 2 Tc 1 0 0 1 0 0 Tm (ab cd) Tj ET"))
    assert tc[1][0] == (CHAR_WIDTH + 2) * 3

    # Tw 5: only the space advance grows
    tw = _rows(_parse_content(b"BT 5 Tw 1 0 0 1 0 0 Tm (ab cd) Tj ET"))
    assert tw[1][0] == CHAR_WIDTH * 3 + 5

    # Tz 50: all horizontal advances halve
    tz = _rows(_parse_content(b"BT 50 Tz 1 0 0 1 0 0 Tm (ab cd) Tj ET"))
    assert tz[1][0] == CHAR_WIDTH * 3 / 2


def test_cm_ctm_composition_and_qQ():
    """cm composes onto the CTM (emitted = tm x ctm); q/Q save/restore."""
    from engine.pdf import _parse_content

    # translate CTM by (100, 50): Tm-positioned text shifts by it
    words = _rows(_parse_content(
        b"1 0 0 1 100 50 cm BT 1 0 0 1 10 20 Tm (A) Tj ET"
    ))
    assert words[0][:2] == (110.0, 70.0)

    # scale-then-translate composition: cm S then cm T -> point*S then +T
    words = _rows(_parse_content(
        b"2 0 0 2 0 0 cm 1 0 0 1 7 9 cm BT 1 0 0 1 10 20 Tm (A) Tj ET"
    ))
    # tm(10,20) x (T x S ... composition order: second cm pre-multiplies)
    # ctm = T x S_prior: x' = (10 + 7*... ) -- verify against manual algebra
    from engine.pdf import _IDENTITY, _mat_mult

    ctm = _mat_mult((1, 0, 0, 1, 7, 9), (2, 0, 0, 2, 0, 0))
    exp = _mat_mult((1, 0, 0, 1, 10, 20), ctm)
    assert words[0][:2] == (exp[4], exp[5])

    # q/Q: the inner cm is discarded after Q
    words = _rows(_parse_content(
        b"q 1 0 0 1 500 500 cm BT 1 0 0 1 1 2 Tm (IN) Tj ET Q "
        b"BT 1 0 0 1 3 4 Tm (OUT) Tj ET"
    ))
    d = {w: (x, y) for x, y, w in words}
    assert d["IN"] == (501.0, 502.0)
    assert d["OUT"] == (3.0, 4.0)


# --------------------------------------------------------- round-3 filters

def test_filter_codecs_roundtrip_vectors():
    """Each from-scratch filter codec round-trips arbitrary bytes, including
    runs, binary, and empty input; RunLength against hand-computed bytes."""
    from engine.pdf import (
        decode_ascii85, decode_ascii_hex, decode_lzw, decode_run_length,
        encode_ascii85, encode_ascii_hex, encode_lzw, encode_run_length,
    )

    payloads = [
        b"",
        b"a",
        b"BT (Hello) Tj ET",
        b"\x00" * 300,
        bytes(range(256)) * 3,
        b"abababababab" + b"\xff" * 129 + b"xyz",
        np.random.default_rng(3).integers(0, 256, size=5000).astype("u1").tobytes(),
    ]
    for p in payloads:
        assert decode_ascii_hex(encode_ascii_hex(p)) == p
        assert decode_ascii85(encode_ascii85(p)) == p
        assert decode_run_length(encode_run_length(p)) == p
        assert decode_lzw(encode_lzw(p)) == p

    # fixed RunLength vector: 'aaaa' run + 'bc' literal + EOD
    assert encode_run_length(b"aaaabc") == bytes([253, ord("a"), 1, ord("b"), ord("c"), 128])
    assert decode_run_length(bytes([253, ord("a"), 1, ord("b"), ord("c"), 128])) == b"aaaabc"
    # ASCIIHex: whitespace ignored, odd digit implies trailing 0, > is EOD
    assert decode_ascii_hex(b"4 8\n65 7>") == b"\x48\x65\x70"


def test_lzw_long_stream_code_width_growth():
    """An input long enough to push LZW through 10-, 11- and 12-bit codes
    and a table-full CLEAR still round-trips exactly."""
    from engine.pdf import decode_lzw, encode_lzw

    rng = np.random.default_rng(7)
    # low-entropy symbol soup grows the dictionary fast and repeatedly
    data = bytes(rng.integers(0, 7, size=120_000).astype("u1")) + b"THE END"
    enc = encode_lzw(data)
    assert decode_lzw(enc) == data
    assert len(enc) < len(data)  # it actually compresses


@pytest.mark.parametrize(
    "flt", ["LZWDecode", "ASCIIHexDecode", "ASCII85Decode", "RunLengthDecode"]
)
def test_alt_filter_writer_reader_roundtrip(flt):
    """Every supported /Filter has a writer twin; parse results are identical
    to the raw encoding for word boxes and hrefs."""
    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [
        (1, 792.0, [(72.0, 760.0, "Alpha"), (120.0, 760.0, "Beta(x)")]),
        (2, 792.0, [(72.0, 760.0, "Delta"), (72.0, 746.0, "Eps")]),
    ]
    hrefs = ["https://a.test/x.html", "https://b.test/y.html"]
    data = render_pdf_page_bytes(pages, hrefs, stream_filter=flt)
    assert b"/" + flt.encode() in data
    got = _layout_rows(parse_pdf_layout(data))
    plain = _layout_rows(parse_pdf_layout(render_pdf_page_bytes(pages, hrefs)))
    assert got == plain
    assert got[1] == hrefs


def test_xref_stream_layout_roundtrip():
    """The PDF 1.5 writer twin packs every non-stream object into a Flate
    /ObjStm and trails with a /Type /XRef stream; the reader's xref-chain
    walk ALONE (no scan fallback) must resolve the whole object graph, and
    extraction must match the classic-layout twin byte for byte."""
    from engine.pdf import (
        _xref_chain_objects,
        parse_pdf_layout,
        render_pdf_page_bytes,
    )

    pages = [
        (1, 792.0, [(72.0, 700.0, "alpha"), (130.0, 700.0, "beta"), (72.0, 680.0, "gamma")]),
        (2, 600.0, [(50.0, 500.0, "delta")]),
    ]
    hrefs = ["https://x.test/a", "https://y.test/b"]
    xs = render_pdf_page_bytes(pages, hrefs, xref_stream=True)
    assert xs.startswith(b"%PDF-1.5") and b"/ObjStm" in xs and b"/XRef" in xs
    assert b"xref\n0 " not in xs  # no classic table — the stream IS the xref

    # the xref walk resolves catalog + page tree without the scanner
    objs = _xref_chain_objects(xs)
    assert any(b"/Catalog" in b for b in objs.values())
    assert sum(b"/Type /Page " in b or b"/Type /Page\n" in b or b"/Type /Page>" in b
               or b"/Type /Page /" in b for b in objs.values()) >= 1

    got = _layout_rows(parse_pdf_layout(xs))
    want = _layout_rows(parse_pdf_layout(render_pdf_page_bytes(pages, hrefs)))
    assert got == want


def test_xref_stream_incremental_update():
    """Incremental-update PDFs: an appended section REPLACES an object via a
    new xref stream whose /Prev chains to the original — the reader must walk
    the chain newest-first and resolve the UPDATED object (how real editors
    save; ISO 32000 7.5.6)."""
    import re
    import zlib

    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [(1, 792.0, [(72.0, 700.0, "original")])]
    base = render_pdf_page_bytes(pages, [], xref_stream=True)
    old_xref_pos = int(re.search(rb"startxref\s+(\d+)", base).group(1))

    # find the content object's number (the classic object holding a stream)
    content_num = None
    for m in re.finditer(rb"(\d+) 0 obj\n<< /Length", base):
        body_start = m.end()
        if b"/ObjStm" not in base[m.start():body_start + 40] and b"/XRef" not in base[m.start():body_start + 40]:
            content_num = int(m.group(1))
    assert content_num is not None
    size = int(re.search(rb"/Size (\d+)", base).group(1))

    new_stream = b"BT /F1 12 Tf 1 0 0 1 72.0 700.0 Tm (updated) Tj ET"
    payload = zlib.compress(new_stream, 9)
    out = bytearray(base)
    upd_pos = len(out)
    out += (b"%d 0 obj\n<< /Length %d /Filter /FlateDecode >>\nstream\n"
            % (content_num, len(payload)) + payload + b"\nendstream\nendobj\n")
    xref_pos = len(out)
    row = bytes([1]) + upd_pos.to_bytes(4, "big") + (0).to_bytes(2, "big")
    xp = zlib.compress(row, 9)
    out += (b"%d 0 obj\n<< /Type /XRef /Size %d /W [1 4 2] /Index [%d 1] "
            b"/Root 1 0 R /Prev %d /Length %d /Filter /FlateDecode >>\nstream\n"
            % (size, size + 1, content_num, old_xref_pos, len(xp))
            + xp + b"\nendstream\nendobj\nstartxref\n%d\n%%%%EOF\n" % xref_pos)

    got_pages, _ = _layout_rows(parse_pdf_layout(bytes(out)))
    words = [w for _x, _y, w in got_pages[0][2]]
    assert words == ["updated"], words


def test_nested_page_tree():
    """Real producers balance pages across intermediate /Pages nodes
    (ISO 32000 7.7.3.2); the reader must walk the tree depth-first in Kids
    order, not assume a flat list."""
    from engine.pdf import parse_pdf_layout

    def content(num, word):
        s = b"BT 1 0 0 1 72.0 700.0 Tm (%s) Tj ET" % word
        return b"%d 0 obj\n<< /Length %d >>\nstream\n" % (num, len(s)) + s + b"\nendstream\nendobj\n"

    data = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        # root -> [node A, page3] ; node A -> [page1, page2]
        b"2 0 obj\n<< /Type /Pages /Kids [10 0 R 5 0 R] /Count 3 >>\nendobj\n"
        b"10 0 obj\n<< /Type /Pages /Parent 2 0 R /Kids [3 0 R 4 0 R] /Count 2 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 10 0 R /MediaBox [0 0 612 792] /Contents 6 0 R >>\nendobj\n"
        b"4 0 obj\n<< /Type /Page /Parent 10 0 R /MediaBox [0 0 612 600] /Contents 7 0 R >>\nendobj\n"
        b"5 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 500] /Contents 8 0 R >>\nendobj\n"
        + content(6, b"one") + content(7, b"two") + content(8, b"three")
        + b"%%EOF\n"
    )
    pages, _ = _layout_rows(parse_pdf_layout(data))
    assert [(n, h, [w for _x, _y, w in ws]) for n, h, ws in pages] == [
        (1, 792.0, ["one"]), (2, 600.0, ["two"]), (3, 500.0, ["three"])
    ]


def test_mediabox_inheritance():
    """/MediaBox on the ROOT /Pages node applies to leaves without one
    (ISO 32000 7.7.3.4) and a leaf's own box overrides the inherited one."""
    from engine.pdf import parse_pdf_layout

    c = b"BT 1 0 0 1 72.0 700.0 Tm (w) Tj ET"
    content_obj = (b"5 0 obj\n<< /Length %d >>\nstream\n" % len(c)
                   + c + b"\nendstream\nendobj\n")
    data = (
        b"%PDF-1.4\n"
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
        b"2 0 obj\n<< /Type /Pages /MediaBox [0 0 612 650] /Kids [3 0 R 4 0 R] /Count 2 >>\nendobj\n"
        b"3 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 5 0 R >>\nendobj\n"   # inherits 650
        b"4 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 500] /Contents 5 0 R >>\nendobj\n"
        + content_obj + b"%%EOF\n"
    )
    pages, _ = parse_pdf_layout(data)
    assert [(n, h) for n, h, _w in pages] == [(1, 650.0), (2, 500.0)]


def test_pdf_image_xobjects_roundtrip():
    """Writer embeds DCT + Flate image XObjects (classic AND xref-stream
    layouts); extract_pdf_images returns the exact payloads; text on the
    same page still extracts; the JPEG payload decodes bit-identically to
    a direct codec round trip."""
    import zlib

    import numpy as np

    from engine.ops.codecs import decode_jpeg, encode_jpeg
    from engine.pdf import (extract_pdf_images, parse_pdf_layout,
                            render_pdf_page_bytes)

    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(9, 12, 3), dtype=np.uint8)
    jpg = encode_jpeg(px)
    raw = rng.integers(0, 256, size=(5, 7, 3), dtype=np.uint8)
    pages = [(1, 792.0, [(72.0, 700.0, "Img"), (110.0, 700.0, "page")])]
    for xs in (False, True):
        pdf = render_pdf_page_bytes(
            pages, ["https://t.test/i"], xref_stream=xs,
            images=[(0, 12, 9, "DCTDecode", jpg),
                    (0, 7, 5, "FlateDecode", zlib.compress(raw.tobytes(), 9))])
        imgs = extract_pdf_images(pdf)
        assert sorted(i["filter"] or "raw" for i in imgs) == ["DCTDecode", "raw"]
        dct = next(i for i in imgs if i["filter"] == "DCTDecode")
        assert dct["payload"] == jpg
        assert (decode_jpeg(dct["payload"]) == decode_jpeg(jpg)).all()
        flat = next(i for i in imgs if i["filter"] is None)
        assert flat["payload"] == raw.tobytes()
        lay, hrefs = _layout_rows(parse_pdf_layout(pdf))
        assert [w for (_x, _y, w) in lay[0][2]] == ["Img", "page"]
        assert hrefs == ["https://t.test/i"]


def test_pdf_image_extract_op(ray_session):
    """The derived-PDF-table op: one image row per doc, filters split by
    the doc_id % 3 rule, words counted on every page, deterministic."""
    from engine.ops.multimodal import pdf_image_extract

    out = pdf_image_extract("/root/testdata/sf0.001")
    out2 = pdf_image_extract("/root/testdata/sf0.001")
    assert out.equals(out2)
    import pyarrow.parquet as pq

    n = pq.read_metadata("/root/testdata/sf0.001/documents.parquet").num_rows
    assert len(out) == n
    assert (out["n_words"] == 2).all()
    assert (out[out["media_id"] % 3 == 0]["img_filter"] == "raw").all()
    assert (out[out["media_id"] % 3 == 1]["img_filter"] == "DCTDecode").all()
    assert (out[out["media_id"] % 3 == 2]["img_filter"]
            == "CCITTFaxDecode").all()
    assert out["mean_milli"].between(0, 255000).all()


# ---------------------------------------------------------------------------
# Encryption (standard security handler, ISO 32000 §7.6 — engine.pdfcrypt)
# ---------------------------------------------------------------------------


def test_aes128_fips197_vector():
    from engine.pdfcrypt import _decrypt_block, _encrypt_block, _expand_key

    key = bytes(range(16))
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = _encrypt_block(pt, _expand_key(key))
    assert ct.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"  # FIPS-197 C.1
    assert _decrypt_block(ct, _expand_key(key)) == pt


def test_rc4_known_vectors():
    from engine.pdfcrypt import rc4

    assert rc4(b"Key", b"Plaintext").hex() == "bbf316e8d940af0ad3"
    assert rc4(b"Wiki", b"pedia").hex() == "1021bf0420"
    # involution: rc4(k, rc4(k, m)) == m
    assert rc4(b"k", rc4(b"k", b"message")) == b"message"


def test_aes_cbc_roundtrip_all_lengths():
    from engine.pdfcrypt import aes128_cbc_decrypt, aes128_cbc_encrypt

    key, iv = b"0123456789abcdef", b"\xab" * 16
    for n in (0, 1, 15, 16, 17, 31, 32, 100):
        data = bytes(range(256))[: n or 0]
        assert aes128_cbc_decrypt(key, aes128_cbc_encrypt(key, iv, data)) == data


def test_handler_o_u_roundtrip_all_modes():
    from engine.pdfcrypt import StandardSecurityHandler

    fid = bytes(range(16))
    for mode in ("rc4-40", "rc4-128", "aes-128", "aes-256"):
        h = StandardSecurityHandler.for_writing(mode, fid)
        h2 = StandardSecurityHandler.from_encrypt_dict(h.encrypt_dict_body(), fid)
        assert h2.key == h.key and h2.r == h.r and h2.aes == h.aes
        msg = b"per-object payload"
        assert h2.decrypt(7, 0, h.encrypt(7, 0, msg)) == msg
        # a different object number must NOT decrypt (Algorithm 1 key differs;
        # V5 uses the file key for every object, so the check is N/A there)
        if mode in ("rc4-40", "rc4-128"):  # AES raises on padding instead
            assert h2.decrypt(8, 0, h.encrypt(7, 0, msg)) != msg


def test_nonempty_user_password_raises():
    import pytest

    from engine.pdfcrypt import (
        StandardSecurityHandler, compute_o, compute_u, file_key)

    fid = b"\x11" * 16
    o = compute_o(b"owner", b"secret", 3, 16)
    key = file_key(b"secret", o, -44, fid, 3, 16)
    u = compute_u(key, fid, 3)
    body = (b"<< /Filter /Standard /V 2 /R 3 /Length 128 /O <"
            + o.hex().encode() + b"> /U <" + u.hex().encode() + b"> /P -44 >>")
    with pytest.raises(NotImplementedError, match="user password"):
        StandardSecurityHandler.from_encrypt_dict(body, fid)


def test_encrypt_metadata_false_keys_the_file():
    """/EncryptMetadata false (R4+) adds four 0xff bytes to the key hash
    (ISO 32000 Algorithm 2 step f); the empty user password still opens."""
    from engine.pdfcrypt import (
        StandardSecurityHandler, compute_o, compute_u, file_key)

    fid = b"\x22" * 16
    o = compute_o(b"owner", b"", 4, 16)
    key = file_key(b"", o, -44, fid, 4, 16, encrypt_metadata=False)
    assert key != file_key(b"", o, -44, fid, 4, 16)
    u = compute_u(key, fid, 4)
    body = (b"<< /Filter /Standard /V 4 /R 4 /Length 128"
            b" /CF << /StdCF << /CFM /AESV2 /Length 16 >> >>"
            b" /StmF /StdCF /StrF /StdCF /EncryptMetadata false"
            b" /O <" + o.hex().encode() + b"> /U <" + u.hex().encode() + b"> /P -44 >>")
    assert StandardSecurityHandler.from_encrypt_dict(body, fid).key == key


def _octal_literal(raw: bytes, breaks: dict) -> bytes:
    """``raw`` as a PDF literal string of octal escapes, with the line
    continuation ``breaks[i]`` (backslash + EOL) inserted before byte i."""
    out = b"("
    for i, c in enumerate(raw):
        out += breaks.get(i, b"") + b"\\%03o" % c
    return out + b")"


def test_literal_o_u_line_continuations():
    """Backslash-EOL inside a literal /O or /U string is a line continuation
    (ISO 32000 §7.3.4.2): it adds no byte, for \\r, \\n and \\r\\n alike."""
    import re

    from engine.pdfcrypt import StandardSecurityHandler, _grab_string

    fid = bytes(range(16))
    breaks = {3: b"\\\n", 11: b"\\\r", 20: b"\\\r\n"}
    for mode in ("rc4-128", "aes-128"):
        h = StandardSecurityHandler.for_writing(mode, fid)
        body = h.encrypt_dict_body()
        for key, val in ((b"/O", h.o), (b"/U", h.u)):
            body = re.sub(re.escape(key) + rb"\s*<[0-9a-f]*>",
                          lambda _m: key + b" " + _octal_literal(val, breaks), body)
        assert b"/O (" in body and b"/U (" in body
        assert _grab_string(body, b"/O") == h.o
        assert _grab_string(body, b"/U") == h.u
        assert StandardSecurityHandler.from_encrypt_dict(body, fid).key == h.key


def test_encrypted_pdf_literal_string_file_id():
    """A trailer /ID written as literal strings (common in real files) keys
    the file exactly as the hex form does."""
    import re

    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [(1, 792.0, [(72.0, 700.0, "Hello"), (120.0, 700.0, "World")])]
    hrefs = ["https://example.com/a"]
    plain = _layout_rows(parse_pdf_layout(render_pdf_page_bytes(pages, hrefs)))
    for mode in ("rc4-40", "rc4-128", "aes-128"):
        data = render_pdf_page_bytes(pages, hrefs, encrypt=mode)
        m = re.search(rb"/ID \[<([0-9a-f]+)> <([0-9a-f]+)>\]", data)
        fid = bytes.fromhex(m.group(1).decode("ascii"))
        lit = _octal_literal(fid, {8: b"\\\r\n"})
        data_lit = data[: m.start()] + b"/ID [" + lit + b" " + lit + b"]" + data[m.end():]
        assert _layout_rows(parse_pdf_layout(data_lit)) == plain, mode


def test_encrypted_pdf_layout_identical_all_modes():
    """Every (cipher x layout x filter) encrypted variant parses to exactly
    the plaintext layout, and the writer is byte-deterministic."""
    from engine.pdf import parse_pdf_layout, render_pdf_page_bytes

    pages = [(1, 792.0, [(72.0, 700.0, "Hello"), (120.0, 700.0, "World")]),
             (2, 792.0, [(72.0, 650.0, "Twin"), (150.0, 650.0, "Doc")])]
    hrefs = ["https://example.com/a", "https://example.com/b(c)"]
    plain = _layout_rows(parse_pdf_layout(render_pdf_page_bytes(pages, hrefs)))
    for mode in ("rc4-40", "rc4-128", "aes-128", "aes-256"):
        for xs in (False, True):
            for filt in (None, "FlateDecode"):
                data = render_pdf_page_bytes(
                    pages, hrefs, stream_filter=filt, xref_stream=xs,
                    encrypt=mode)
                assert _layout_rows(parse_pdf_layout(data)) == plain, (mode, xs, filt)
                assert data == render_pdf_page_bytes(
                    pages, hrefs, stream_filter=filt, xref_stream=xs,
                    encrypt=mode)


def test_encrypted_corpus_golden_byte_identical():
    """The pdf_encrypted corpus (cipher+layout cycling per row) extracts
    byte-identically to the plain-HTML golden for the same rows."""
    from engine.extract import extract_document
    from engine.synth import (
        CorpusConfig, build_assignment, build_page_html,
        build_page_pdf_encrypted, url_of)

    cfg = CorpusConfig(n_pages=30, n_hosts=5, n_buckets=4)
    assign = build_assignment(cfg)
    for rid in range(16):
        u = url_of(rid, assign)
        want = extract_document(build_page_html(rid, cfg, assign).encode(), u)
        got = extract_document(build_page_pdf_encrypted(rid, cfg, assign), u)
        assert got["markdown"] == want["markdown"], rid
        assert got["hrefs"] == want["hrefs"], rid


def test_lzw_earlychange0_stream():
    """/DecodeParms /EarlyChange 0 (the non-default TIFF variant) decodes
    instead of raising — the last LZW boundary closed (r4 diagnostic)."""
    from engine.pdf import _decode_stream, decode_lzw, encode_lzw

    content = b"BT /F1 12 Tf (word) Tj ET\n" * 200
    for early in (0, 1):
        raw = encode_lzw(content, early=early)
        dp = b"<< /Length %d /Filter /LZWDecode /DecodeParms << /EarlyChange %d >> >>" % (len(raw), early)
        assert _decode_stream(dp, raw) == content
        assert decode_lzw(raw, early=early) == content


def test_crawl_over_encrypted_pdf_corpus_matches_oracle(tmp_path, ray_session):
    """End-to-end: the crawl pipeline over a pdf_encrypted corpus (4 ciphers
    x 2 layouts cycling per row) matches the sequential oracle exactly —
    order, seen set, counters — and every fetched doc's markdown equals the
    golden text.  Decryption rides inside the distributed extract stage."""
    from engine.crawl import crawl
    from engine.oracle import crawl_oracle
    from engine.synth import CorpusConfig, generate_corpus

    corpus = str(tmp_path / "enc_corpus")
    generate_corpus(
        corpus,
        CorpusConfig(n_pages=120, n_hosts=8, n_buckets=4,
                     encoding="pdf_encrypted"),
        use_ray=False,
    )
    budget = {"max_urls_total": 100, "max_per_host_per_round": 5,
              "max_depth": 5, "max_rounds": 6}
    oracle = crawl_oracle(corpus, budget)
    engine = crawl(corpus, str(tmp_path / "ckpt_enc"), budget)
    assert engine.cumulative == oracle["cumulative"]
    assert engine.cumulative["fetched"] > 20
    got = engine.order_table().to_pylist()
    assert [(x["fetch_seq"], x["url"]) for x in got] == [
        (x["fetch_seq"], x["url"]) for x in oracle["order"]
    ]
    import os
    from glob import glob

    import pyarrow.parquet as pq

    golden = {}
    for f in glob(os.path.join(corpus, "pages", "bucket=*", "*.parquet")):
        t = pq.read_table(f, columns=["url", "text"])
        golden.update(zip(t["url"].to_pylist(), t["text"].to_pylist()))
    docs = engine.docs_dataset().to_pandas()
    hits = docs[docs.status == "hit"]
    assert len(hits) > 20
    for u, m in zip(hits.url, hits.markdown):
        assert golden[u] == m, u
