"""Layout-aware page -> Markdown extraction + link extraction.

This is the engine's analog of the reference's 776-line PDF->Markdown
converter (``/root/reference/PdfToMarkdownConverter.cs:75-777``), re-expressed
as a **pure deterministic function** of the page bytes + logical name so it can
run per-row inside ``map_batches(batch_format="pyarrow")`` with safe retries.

Input format
------------
The corpus (`engine.synth`) stores Common-Crawl-style pages as ``html: binary``.
Because the reference's extraction semantics are *layout-driven* (word boxes
with coordinates, not a DOM), the synthetic HTML encodes the layout explicitly:

    <div class="page" data-page="1" data-height="792.0">
      <span class="w" style="left:72.0pt;top:708.0pt">Word</span> ...
    </div>
    ...
    <nav><a href="...">t</a> ...</nav>

``left`` is the word's left x-coordinate; ``top`` carries the word's vertical
mid-line (the reference computes ``(BoundingBox.Top+BoundingBox.Bottom)/2`` at
``PdfToMarkdownConverter.cs:287``; the synthesizer emits that midline
directly).  ``Right`` is modeled as ``left + CHAR_WIDTH * len(text)`` (fixed
metric, shared by synth + extract).

Pipeline (mirrors ``ConvertToMarkdownCore``, ``PdfToMarkdownConverter.cs:116-259``):

    page_layout -> build_lines -> detect_repeating_lines -> parse_header_and_title ->
    per page [repeat-filter -> noise-filter -> header-line-filter ->
              numbered-heading | process-table | paragraph] -> flush

Words travel as columns: ``page_layout`` (this module's ``parse_layout`` or
``engine.pdf.parse_pdf_layout``) gives each page's words as ``(left, mid_y,
texts)``, two float64 arrays and a list, and ``build_lines`` groups them with
one ``np.lexsort`` per page.  A ``Line`` keeps its words' ``left`` and
``texts``; ``WordBox`` objects are built only when ``Line.words`` is read,
which only table detection does (``compute_column_anchors``,
``slice_into_columns``).

Every helper cites the reference lines whose semantics it re-implements.
All state is per-document; nothing here touches Ray.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# Fixed-width font model shared with engine.synth (defines WordBox.Right).
CHAR_WIDTH = 6.0

# ---------------------------------------------------------------------------
# Options — the analog of PdfToMarkdownOptions (PdfToMarkdownConverter.cs:10-73)
# ---------------------------------------------------------------------------

_NOISE_STARTS_WITH = (
    # PdfToMarkdownConverter.cs:16-30
    "This document contains proprietary information",
    "Unauthorized use",
    "Uncontrolled if printed",
    "Before using this document, the reader is responsible",
    "Copyright",
    "All rights reserved",
    "use, reproduction, or distribution",
    "CUI",
    "Controlled Unclassified",
    "Privacy Act",
    "Sensitive but unclassified",
)

_NOISE_PATTERNS = tuple(
    re.compile(p)
    for p in (
        # PdfToMarkdownConverter.cs:32-48
        r"(?i)^\s*Page\s*:\s*\d+\s*of\s*\d+\s*$",
        r"(?i)^CLG\-[A-Z\-]+\d+(\s*Page\s*\d+)?$",
        r"(?i)^\s*Revision\s*:\s*[A-Za-z0-9]+\s*$",
        r"(?i)\b(CUI|Controlled\s+Unclassified|Privacy\s+Act|Sensitive\s+but\s+unclassified)\b",
        r"(?i)\bproprietary information\b",
        r"(?i)\bUnauthorized\s+use\b",
        r"(?i)\buse\s*,\s*reproduction\s*,\s*or\s*distribution\b",
        r"(?i)\breproduction\s*,\s*or\s*distribution\b",
        r"(?i)\buncontrolled if printed\b",
        r"(?i)\bAll rights reserved\b",
        r"(?i)^\s*use\s*,?\s*or\s*$",
    )
)

_PAGE_OF_RE = re.compile(r"(?i)\bPage\s*:\s*\d+\s*of\s*\d+\b")  # cs:338


# The default noise check as two scans instead of 12: the ``^``-anchored
# patterns OR-ed into one regex that is ``match``ed at the line start, the
# rest (and the inline page-of check) into one that is ``search``ed.  Every
# default pattern carries the same leading (?i), so one global flag per
# regex keeps each branch's meaning and `match or search` is exactly
# `any(search(p_i))`.  Unanchored branches scanned at every position were
# what made a single alternation slow.
def _noise_alternation(patterns: list) -> re.Pattern:
    assert all(p.startswith("(?i)") for p in patterns)
    return re.compile("(?i)" + "|".join(f"(?:{p[4:]})" for p in patterns))


_NOISE_DEFAULT_PATTERNS = [rx.pattern for rx in _NOISE_PATTERNS] + [_PAGE_OF_RE.pattern]
_NOISE_ANCHORED_RE = _noise_alternation(
    [p for p in _NOISE_DEFAULT_PATTERNS if p.startswith("(?i)^")])
_NOISE_UNANCHORED_RE = _noise_alternation(
    [p for p in _NOISE_DEFAULT_PATTERNS if not p.startswith("(?i)^")])
_NOISE_PREFIXES_CF = tuple(s.casefold() for s in _NOISE_STARTS_WITH)

# "1.0 Purpose"-style headings (PdfToMarkdownConverter.cs:52-53)
_NUMBERED_HEADING_RE = re.compile(r"^(?P<num>\d+(?:\.\d+)*)(?:\s+|\s*-\s*)(?P<title>.+)$")

_HEADER_KEYS = (
    "Document\\s*No\\.?",
    "Effective\\s*Date",
    "Revision",
    "Accountable\\s*Organization",
    "Management\\s*Approval",
    "Source",
    "Page",
)
_KEY_ALT = "|".join(_HEADER_KEYS)
# PdfToMarkdownConverter.cs:447
_KEY_ONLY_RE = re.compile(r"(?i)^(" + _KEY_ALT + r")\s*:\s*$")
# PdfToMarkdownConverter.cs:448
_KEY_VAL_RE = re.compile(r"(?i)^(?P<k>" + _KEY_ALT + r")\s*:\s*(?P<v>.+)$")
# PdfToMarkdownConverter.cs:422
_IS_KEY_LINE_RE = re.compile(r"(?i)^(" + _KEY_ALT + r")\s*:")
# PdfToMarkdownConverter.cs:465
_VALUE_LOOKS_LIKE_KEY_RE = re.compile(
    r"(?i)^(Document|Effective|Revision|Accountable|Management|Source|Page)\s*:\s*$"
)
# PdfToMarkdownConverter.cs:421 ("pure word" title lines)
_PURE_WORDS_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9 \-,()/:]{0,120}$")

_PROCESS_TABLE_TOKENS = ("Step", "Responsibility", "Action")  # cs:67

# ShouldMerge regexes (PdfToMarkdownConverter.cs:158,160)
_MERGE_BREAK_NEXT_RE = re.compile(r"^(\d+(?:\.\d+)*\b|[A-Za-z]\.|[A-Za-z]\)|[-•])")
_MERGE_END_PUNCT_RE = re.compile(r"[\.!\?:;]$")


@dataclass(frozen=True)
class ExtractOptions:
    """Analog of PdfToMarkdownOptions (PdfToMarkdownConverter.cs:10-73)."""

    line_y_tolerance: float = 2.0           # cs:12
    repeat_line_removal_threshold: float = 0.6  # cs:13
    table_lookahead_lines: int = 8          # cs:70
    large_gap_threshold: float = 22.0       # cs:71
    column_anchor_merge_tolerance: float = 16.0  # cs:72
    noise_starts_with: tuple = _NOISE_STARTS_WITH
    noise_patterns: tuple = _NOISE_PATTERNS


DEFAULT_OPTIONS = ExtractOptions()


# ---------------------------------------------------------------------------
# Layout model (PdfToMarkdownConverter.cs:263-281)
# ---------------------------------------------------------------------------

# slots=True: lines are allocated by the thousand per document; slotted instances
# are ~3x smaller and GC-lighter, which raises the multi-core ceiling of the
# extraction stage (allocation-heavy Python hits memory/page-fault contention
# long before it runs out of ALUs).
@dataclass(slots=True)
class WordBox:
    text: str
    left: float
    right: float


@dataclass(slots=True)
class Line:
    y: float
    text: str
    left: list  # the words' left x, in reading order
    texts: list  # the words' texts (stripped, non-empty), same order

    @property
    def words(self) -> list:
        """The words as WordBoxes, built on each read: only table detection
        reads them, for a few lines per document."""
        return [WordBox(t, x, x + CHAR_WIDTH * len(t)) for x, t in zip(self.left, self.texts)]


@dataclass(slots=True)
class PageLines:
    number: int
    height: float
    lines: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# HTML layout parsing (synthetic Common-Crawl-style page format)
# ---------------------------------------------------------------------------

_PAGE_HEAD_RE = re.compile(r'<div class="page" data-page="(\d+)" data-height="([\d.]+)">')
_WORD_SPAN_RE = re.compile(
    r'<span class="w" style="left:([\d.]+)pt;top:([\d.]+)pt">([^<]*)</span>'
)
_HREF_RE = re.compile(r'<a\s+href="([^"]*)"')


def parse_layout(html: bytes) -> tuple[list, list]:
    """Parse the synthetic page bytes into ([(page_no, height, words)], hrefs).

    ``words`` is the page's words as columns ``(left, mid_y, texts)``: two
    float64 arrays and a list of str, in document order.  A page's body runs
    from its ``<div class="page" ...>`` header to the first ``</div>`` after
    it; a header with no ``</div>`` after it ends the pages.

    The analog of PdfPig's ``pdf.GetPages()`` / ``page.GetWords()`` feeding
    ``BuildLines`` (PdfToMarkdownConverter.cs:119-121, 283-304); hrefs are the
    link-graph payload (the analog of the folder listing's ``Folders`` array,
    ``SharePointClient.cs:305-321``).
    """
    text = html.decode("utf-8", errors="replace")
    pages = []
    m = _PAGE_HEAD_RE.search(text)
    while m is not None:
        start = m.end()
        end = text.find("</div>", start)
        if end < 0:
            break
        spans = _WORD_SPAN_RE.findall(text, start, end)
        lefts, tops, raw = zip(*spans) if spans else ((), (), ())
        texts = list(map(_unescape_html, raw)) if text.find("&", start, end) >= 0 else list(raw)
        words = (
            np.fromiter(map(float, lefts), np.float64, len(lefts)),
            np.fromiter(map(float, tops), np.float64, len(tops)),
            texts,
        )
        pages.append((int(m.group(1)), float(m.group(2)), words))
        m = _PAGE_HEAD_RE.search(text, end + len("</div>"))
    hrefs = [_unescape_html(h) for h in _HREF_RE.findall(text)]
    return pages, hrefs


def _escape_html(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


def _unescape_html(s: str) -> str:
    if "&" not in s:  # fast path: the overwhelming majority of words
        return s
    return (
        s.replace("&quot;", '"').replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
    )


# ---------------------------------------------------------------------------
# P2: word -> line reconstruction (PdfToMarkdownConverter.cs:283-306)
# ---------------------------------------------------------------------------

def _round_to(value, tol: float):
    # cs:306 — Math.Round uses banker's rounding, as does np.round (and
    # Python's round()); elementwise over an array of values.
    return np.round(value / tol) * tol


def build_lines(page_no: int, height: float, words: tuple, y_tol: float) -> PageLines:
    """Group a page's words into lines by quantized mid-Y; top-down, left-to-right.

    ``words`` are columns ``(left, mid_y, texts)`` as ``parse_layout`` and
    ``engine.pdf.parse_pdf_layout`` emit them.  Mirrors BuildLines
    (PdfToMarkdownConverter.cs:283-304): group by ``RoundTo(midY, tol)``,
    order groups by Y descending, words by Left ascending (both stable, one
    ``lexsort``), join with single spaces, drop empty words and blank lines.
    """
    left, mid_y, texts = words
    pl = PageLines(page_no, height)
    stripped = list(map(str.strip, texts))
    kept = np.fromiter(map(bool, stripped), bool, len(stripped))
    key = _round_to(mid_y, y_tol)
    order = np.lexsort((left, -key))
    order = order[kept[order]]
    if not len(order):
        return pl
    key = key[order]
    lefts = left[order].tolist()
    ws = list(map(stripped.__getitem__, order.tolist()))
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), len(ws)]
    for y, a, b in zip(key[bounds[:-1]].tolist(), bounds, bounds[1:]):
        line_words = ws[a:b]
        pl.lines.append(Line(y, " ".join(line_words), lefts[a:b], line_words))
    return pl


# ---------------------------------------------------------------------------
# P3: repeating header/footer detection (PdfToMarkdownConverter.cs:309-323)
# ---------------------------------------------------------------------------

def detect_repeating_lines(pages: list, threshold: float) -> set:
    """Case-insensitive texts of first-4 + last-4 lines repeated on >= ceil(max(1, n*threshold)) pages.

    Returns a set of casefolded strings.  Note the reference concatenates
    Take(4) and TakeLast(4), double-counting overlapping lines on short pages —
    replicated here on purpose.
    """
    import math

    counts: dict = {}
    for p in pages:
        sample = [l.text.strip() for l in p.lines[:4]] + [l.text.strip() for l in p.lines[-4:]]
        for t in sample:
            if not t:
                continue
            k = t.casefold()
            counts[k] = counts.get(k, 0) + 1
    min_hits = math.ceil(max(1.0, len(pages) * threshold))
    return {k for k, c in counts.items() if c >= min_hits}


# ---------------------------------------------------------------------------
# P4: noise filter (PdfToMarkdownConverter.cs:326-341)
# ---------------------------------------------------------------------------

def is_noise(line: str, opt: ExtractOptions = DEFAULT_OPTIONS) -> bool:
    """C# Regex.IsMatch is unanchored search; anchored patterns carry ^...$ themselves."""
    l = line.strip()
    if not l:
        return False
    lcf = l.casefold()
    if opt is DEFAULT_OPTIONS:  # fast path: the same checks, precompiled
        return (
            lcf.startswith(_NOISE_PREFIXES_CF)
            or _NOISE_ANCHORED_RE.match(l) is not None
            or _NOISE_UNANCHORED_RE.search(l) is not None
        )
    for s in opt.noise_starts_with:
        if lcf.startswith(s.casefold()):
            return True
    for rx in opt.noise_patterns:
        if rx.search(l):
            return True
    if _PAGE_OF_RE.search(l):
        return True
    return False


# ---------------------------------------------------------------------------
# P17: markdown escaping (PdfToMarkdownConverter.cs:344-345)
# ---------------------------------------------------------------------------

def escape_md(s: str) -> str:
    return s.replace("|", "\\|").replace("*", "\\*").replace("_", "\\_").strip()


# ---------------------------------------------------------------------------
# P5: header + title parsing (PdfToMarkdownConverter.cs:406-633)
# ---------------------------------------------------------------------------

_KEY_ROW_RES = {
    key: re.compile(r"(?i)^" + re.escape(key) + r"\s*:")
    for key in ("Document No.", "Page", "Effective Date", "Revision",
                "Accountable Organization", "Management Approval")
}


def _index_of_key(lines: list, key: str) -> int:
    rx = _KEY_ROW_RES[key]
    for i, s in enumerate(lines):
        if rx.match(s):
            return i
    return -1


def _split_combo_value(raw: str) -> tuple[str, str]:
    # cs:513-530 — "06/08/2023 G", "CLG-EN-PR-0175 1 of 4", big-gap split, midpoint fallback.
    big_gap = [s.strip() for s in re.split(r"\s{2,}", raw) if s.strip()]
    if len(big_gap) >= 2:
        return big_gap[0], big_gap[1]
    if re.match(r"^\d{2}/\d{2}/\d{4}\s+[A-Za-z0-9]+$", raw):
        sp = re.split(r"\s+", raw.strip())
        return sp[0], sp[1]
    m = re.match(r"(?i)^(?P<doc>[A-Z0-9\-]+)\s+(?P<page>\d+\s+of\s+\d+)$", raw)
    if m:
        return m.group("doc"), m.group("page")
    mid = len(raw) // 2
    idx = raw.rfind(" ", 0, mid + 1)
    if idx <= 0:
        idx = raw.find(" ", mid)
    if idx > 0:
        return raw[:idx].strip(), raw[idx + 1:].strip()
    return raw.strip(), ""


class _CaseInsensitiveSet:
    """HashSet<string>(OrdinalIgnoreCase) analog used for headerLines."""

    def __init__(self):
        self._s: set = set()

    def add(self, v: str):
        self._s.add(v.casefold())

    def __contains__(self, v: str) -> bool:
        return v.casefold() in self._s


def parse_header_and_title(first: Optional[PageLines]):
    """Transcription of ParseHeaderAndTitle (PdfToMarkdownConverter.cs:406-633).

    Returns (header: dict[str,str] with lowercase keys doc/eff/rev/org/appr/src,
    header_lines: case-insensitive set of line texts to drop from the body,
    title: Optional[str]).

    Deliberately faithful quirks: key-row indices are located BEFORE the
    "Key:\\nValue" folding mutates the line list (cs:428-433 vs 451-461), so
    later index arithmetic uses the pre-fold indices, exactly as the reference
    does.
    """
    header: dict = {}
    header_lines = _CaseInsensitiveSet()
    title: Optional[str] = None
    if first is None:
        return header, header_lines, title

    n = len(first.lines)
    top = first.lines[: min(50, max(25, n))]
    lines = [l.text.strip() for l in top]

    doc_key_idx = _index_of_key(lines, "Document No.")
    _page_key_idx = _index_of_key(lines, "Page")
    eff_key_idx = _index_of_key(lines, "Effective Date")
    rev_key_idx = _index_of_key(lines, "Revision")
    org_key_idx = _index_of_key(lines, "Accountable Organization")
    appr_key_idx = _index_of_key(lines, "Management Approval")

    # "Standard Operating Procedure" banner window (cs:436-444)
    for i in range(min(len(lines), 15)):
        win = " ".join(lines[i : i + 3])
        if re.search(r"(?i)\bstandard\s+operating\s+procedure\b", win):
            for j in range(i, min(len(lines), i + 3)):
                header_lines.add(lines[j])
            break

    # Fold "Key:" + next line -> "Key: Value" (cs:446-461)
    raw_values_to_drop = []
    i = 0
    while i < len(lines) - 1:
        if _KEY_ONLY_RE.match(lines[i]):
            label = re.sub(r"\s*:\s*$", "", lines[i])
            lines[i] = f"{label}: {lines[i + 1]}"
            raw_values_to_drop.append(lines[i + 1])
            del lines[i + 1]
            # cs:459 `i--` then loop `i++` -> re-examine same index
            continue
        i += 1

    def is_key_line(s: str) -> bool:
        return bool(_IS_KEY_LINE_RE.match(s))

    # Locate the value row for Document No. (cs:467-479)
    doc_value_idx = -1
    if doc_key_idx >= 0:
        for j in range(doc_key_idx + 1, min(len(lines), doc_key_idx + 8)):
            v = lines[j]
            if not v.strip():
                continue
            if is_key_line(v):
                break
            doc_value_idx = j
            break

    # Title: pure-word lines between docValueIdx and the Effective Date key row (cs:481-496)
    if doc_value_idx >= 0 and eff_key_idx > doc_value_idx:
        parts = []
        for j in range(doc_value_idx + 1, min(eff_key_idx, len(lines))):
            cand = lines[j]
            if not cand.strip():
                continue
            if is_key_line(cand):
                break
            if not _PURE_WORDS_RE.match(cand):
                continue
            parts.append(cand)
            header_lines.add(cand)
        if parts:
            title = " ".join(parts)

    def find_value_row_after(key_index: int, max_lookahead: int = 10) -> Optional[str]:
        # cs:498-510
        for j in range(key_index + 1, min(len(lines), key_index + 1 + max_lookahead)):
            v = lines[j]
            if not v.strip():
                continue
            if is_key_line(v):
                break
            if v in header_lines:
                continue
            return v
        return None

    def mark(s: str):
        if s and s.strip():
            header_lines.add(s.strip())

    # Document No. / Page (cs:534-544)
    if doc_key_idx >= 0:
        raw = find_value_row_after(doc_key_idx, 8) if doc_key_idx < len(lines) else None
        if raw is not None:
            dv, _pv = _split_combo_value(raw)
            if re.match(r"^[A-Z0-9][A-Z0-9\-]{4,}$", dv):
                header["doc"] = dv
            if doc_key_idx < len(lines):
                mark(lines[doc_key_idx])
            mark(raw)

    # Effective Date / Revision (cs:546-557)
    if eff_key_idx >= 0:
        raw = find_value_row_after(eff_key_idx, 8) if eff_key_idx < len(lines) else None
        if raw is not None:
            dv, rv = _split_combo_value(raw)
            if re.match(r"^\d{2}/\d{2}/\d{4}$", dv):
                header["eff"] = dv
            if re.match(r"^[A-Za-z0-9]{1,3}$", rv):
                header["rev"] = rv
            if eff_key_idx < len(lines):
                mark(lines[eff_key_idx])
            mark(raw)
    # Revision fallback row (cs:559-566)
    if "rev" not in header and rev_key_idx >= 0:
        raw = find_value_row_after(rev_key_idx, 8) if rev_key_idx < len(lines) else None
        if raw is not None and re.match(r"^[A-Za-z0-9]{1,3}$", raw.strip()):
            header["rev"] = raw.strip()
            if rev_key_idx < len(lines):
                mark(lines[rev_key_idx])
            mark(raw)

    # Accountable Organization / Management Approval (cs:568-597)
    if org_key_idx >= 0:
        raw = find_value_row_after(org_key_idx, 8) if org_key_idx < len(lines) else None
        if raw is not None:
            org_val = raw.strip()
            nm = re.search(r"\s([A-Z][a-z]+(?:\s+[A-Z][a-z'.-]+)+)$", org_val)
            if nm and "appr" not in header and appr_key_idx >= 0:
                name = nm.group(1).strip()
                header["appr"] = name
                org_val = org_val[: -len(name)].strip()
            header["org"] = org_val
            if org_key_idx < len(lines):
                mark(lines[org_key_idx])
            mark(raw)
    if "appr" not in header and appr_key_idx >= 0:
        raw = find_value_row_after(appr_key_idx, 8) if appr_key_idx < len(lines) else None
        if raw is not None:
            if re.match(r"^[A-Za-z]+(?:\s+[A-Za-z'.-]+)+$", raw.strip()):
                header["appr"] = raw.strip()
            if appr_key_idx < len(lines):
                mark(lines[appr_key_idx])
            mark(raw)

    # Plain "Key: value" rows (cs:599-625)
    for l in lines:
        m = _KEY_VAL_RE.match(l)
        if not m:
            continue
        val = m.group("v").strip()
        if _VALUE_LOOKS_LIKE_KEY_RE.match(val):
            continue
        k = re.sub(r"\s+", " ", m.group("k").strip()).lower()
        if k in ("document no.", "document no"):
            if "doc" not in header and re.match(r"^[A-Z0-9][A-Z0-9\-]{4,}$", val):
                header["doc"] = val
        elif k == "effective date":
            if "eff" not in header and re.match(r"^\d{2}/\d{2}/\d{4}$", val):
                header["eff"] = val
        elif k == "revision":
            if "rev" not in header and re.match(r"^[A-Za-z0-9]{1,3}$", val):
                header["rev"] = val
        elif k == "accountable organization":
            if "org" not in header:
                header["org"] = val
        elif k == "management approval":
            if "appr" not in header and re.match(r"^[A-Za-z]+(?:\s+[A-Za-z'.-]+)+$", val):
                header["appr"] = val
        elif k == "source":
            if "src" not in header:
                header["src"] = val
        header_lines.add(l)

    # Always drop banner tokens + folded value-only lines (cs:627-630)
    header_lines.add("Management System")
    header_lines.add("Standard Operating Procedure")
    for v in raw_values_to_drop:
        header_lines.add(v)

    return header, header_lines, title


# ---------------------------------------------------------------------------
# P9-P15: process-table detection / extraction (PdfToMarkdownConverter.cs:637-776)
# ---------------------------------------------------------------------------

def looks_like_process_table_header(line: Line) -> bool:
    # cs:637-642
    tcf = line.text.casefold()
    return all(tok.casefold() in tcf for tok in _PROCESS_TABLE_TOKENS)


def compute_column_anchors(lines: list, start: int, lookahead: int, opt: ExtractOptions) -> list:
    # cs:654-696
    header = lines[start]
    anchors = []
    for w in header.words:
        if w.text.casefold() in ("step", "responsibility", "action"):
            anchors.append(w.left)
    anchors = sorted(set(anchors))
    if len(anchors) == 3:
        return anchors

    pts = []
    end = min(len(lines), start + lookahead)
    for i in range(start, end):
        ws = lines[i].words
        if len(ws) < 2:
            continue
        pts.append(ws[0].left)
        for j in range(len(ws) - 1):
            gap = ws[j + 1].left - ws[j].right
            if gap >= opt.large_gap_threshold:
                pts.append(ws[j + 1].left)
    if not pts:
        return anchors

    pts.sort()
    merged = [pts[0]]
    for x in pts[1:]:
        if abs(x - merged[-1]) <= opt.column_anchor_merge_tolerance:
            merged[-1] = (merged[-1] + x) / 2.0
        else:
            merged.append(x)
    return merged[:3]


def slice_into_columns(line: Line, anchors: list) -> list:
    # cs:746-761 — each word to the nearest anchor (ties keep the lower index).
    buckets: list = [[] for _ in anchors]
    for w in line.words:
        best = 0
        best_dist = abs(w.left - anchors[0])
        for k in range(1, len(anchors)):
            d = abs(w.left - anchors[k])
            if d < best_dist:
                best, best_dist = k, d
        buckets[best].append(w.text)
    return [" ".join(b) for b in buckets]


def count_filled_columns(line: Line, anchors: list) -> int:
    # cs:740-744
    return sum(1 for c in slice_into_columns(line, anchors) if c.strip())


def extract_table_with_anchors(lines: list, start: int, anchors: list):
    # cs:700-737
    block = [lines[start]]
    i = start + 1
    while i < len(lines):
        if _NUMBERED_HEADING_RE.match(lines[i].text):
            break
        if count_filled_columns(lines[i], anchors) >= 1:
            block.append(lines[i])
            i += 1
        else:
            break

    rows: list = []
    for ln in block:
        cols = [c.strip() for c in slice_into_columns(ln, anchors)]
        if rows:
            is_header = len(rows) == 1 and any("step" in c.casefold() for c in rows[0])
            if not is_header and not cols[0].strip():
                # cs:721-727 — merge wrapped line into previous row's Action
                # cell (index 2), else Responsibility (index 1).
                last = rows[-1]
                target = 2
                if not last[target].strip():
                    target = 1
                last[target] = (last[target] + " " + " ".join(cols[1:])).strip()
                continue
        rows.append(cols)

    if len(rows) < 2:
        return [], len(block)
    return rows, len(block)


def render_table(rows: list) -> str:
    # cs:763-776
    if not rows:
        return ""
    ncols = max(len(r) for r in rows)
    norm = [r + [""] * (ncols - len(r)) for r in rows]
    out = []
    out.append("| " + " | ".join(escape_md(c) for c in norm[0]) + " |")
    out.append("| " + " | ".join(["---"] * ncols) + " |")
    for r in norm[1:]:
        out.append("| " + " | ".join(escape_md(c) for c in r) + " |")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Core conversion (ConvertToMarkdownCore, PdfToMarkdownConverter.cs:116-259)
# ---------------------------------------------------------------------------

def _should_merge(curr: str, nxt: Optional[str]) -> bool:
    # cs:149-165
    if not curr or not curr.strip() or not nxt or not nxt.strip():
        return False
    c = curr.rstrip()
    n = nxt.lstrip()
    if _MERGE_BREAK_NEXT_RE.match(n):
        return False
    if _MERGE_END_PUNCT_RE.search(c):
        return False
    return n[0].islower()


def convert_pages_to_markdown(
    all_pages: list, logical_name: str, opt: ExtractOptions = DEFAULT_OPTIONS
):
    """The core loop (PdfToMarkdownConverter.cs:116-259).

    Returns (markdown: str, header: dict, title: Optional[str]).
    Output always ends with exactly one trailing "\\n" (cs:258; newline pinned
    to LF per SURVEY.md §7.6).
    """
    repeat_set = detect_repeating_lines(all_pages, opt.repeat_line_removal_threshold)
    header, header_lines, title = parse_header_and_title(all_pages[0] if all_pages else None)

    md: list = []
    h1 = title if title is not None else header.get("doc", None)
    if h1 is None:
        h1 = logical_name
    md.append("# " + escape_md(h1) + "\n")
    md.append("\n")

    in_process_section = False
    para_buf: list = []

    def flush_paragraph():
        if para_buf:
            md.append("".join(para_buf) + "\n")
            md.append("\n")
            para_buf.clear()

    for pi, page in enumerate(all_pages):
        body = [
            l
            for l in page.lines
            if l.text.strip().casefold() not in repeat_set
            and not is_noise(l.text, opt)
            and not (pi == 0 and l.text.strip() in header_lines)
        ]
        if pi == 0 and title is not None:
            tcf = title.casefold()
            body = [l for l in body if l.text.strip().casefold() != tcf]

        i = 0
        while i < len(body):
            raw = body[i]
            text = raw.text.strip()

            # 1) numbered heading (cs:185-199)
            mh = _NUMBERED_HEADING_RE.match(text)
            if mh:
                flush_paragraph()
                num = mh.group("num")
                ttl = mh.group("title").strip()
                level = min(6, 2 + num.count("."))
                md.append("#" * level + " " + escape_md(f"{num} {ttl}") + "\n")
                md.append("\n")
                in_process_section = num.startswith("6")
                i += 1
                continue

            # 2) process table (cs:201-230)
            if in_process_section and looks_like_process_table_header(raw):
                anchors = compute_column_anchors(body, i, opt.table_lookahead_lines, opt)
                looks_tabular = False
                if len(anchors) >= 3:
                    ok = 0
                    for peek in range(i + 1, min(len(body), i + 3)):
                        if count_filled_columns(body[peek], anchors) >= 2:
                            ok += 1
                    looks_tabular = ok >= 2
                if looks_tabular:
                    flush_paragraph()
                    rows, consumed = extract_table_with_anchors(body, i, anchors)
                    if len(rows) >= 2:
                        md.append(render_table(rows) + "\n")
                        md.append("\n")
                        i += consumed
                        continue
                # else fall through to paragraph handling

            # 3) paragraph accumulation (cs:232-250)
            escaped = escape_md(text)
            if not para_buf:
                para_buf.append(escaped)
            else:
                para_buf.append(" " + escaped)
            next_text = body[i + 1].text if i + 1 < len(body) else None
            if not _should_merge(text, next_text):
                flush_paragraph()
            i += 1
        # no flush at page boundary (cs:252)

    flush_paragraph()
    return "".join(md).strip() + "\n", header, title


# ---------------------------------------------------------------------------
# Top-level per-document entry (the analog of ConvertToMarkdown(byte[], name),
# PdfToMarkdownConverter.cs:88-93, plus link extraction)
# ---------------------------------------------------------------------------

def logical_name_from_url(url: str) -> str:
    """Filename-stem analog of Path.GetFileNameWithoutExtension (cs:84); "document" fallback (cs:92)."""
    from urllib.parse import urlsplit

    path = urlsplit(url).path
    base = path.rstrip("/").rsplit("/", 1)[-1]
    stem = base.rsplit(".", 1)[0] if "." in base else base
    return stem or "document"


def extract_pdf_document(pdf_bytes: bytes, url: str, opt: ExtractOptions = DEFAULT_OPTIONS) -> dict:
    """PDF entry point — real bytes path (VERDICT r1 next-round #3).

    A from-scratch reader for uncompressed PDF content streams
    (``engine.pdf.parse_pdf_layout``: BT/ET, Tf/Td/TD/Tm/TL/T*, Tj/TJ ->
    word boxes; /Annots link annotations -> hrefs) feeds the SAME
    ``build_lines`` -> ``convert_pages_to_markdown`` pipeline as the HTML
    layout path — mirroring the reference, where PdfPig's GetWords() is the
    only PDF-specific stage (``PdfToMarkdownConverter.cs:81-113,283-304``).
    Compressed (/Filter) streams raise NotImplementedError.
    """
    if not pdf_bytes.startswith(b"%PDF-"):
        raise ValueError("extract_pdf_document expects %PDF- bytes")
    return extract_document(pdf_bytes, url, opt)


def extract_from_path(path: str, url: str | None = None, opt: ExtractOptions = DEFAULT_OPTIONS) -> dict:
    """Path entry point — the analog of ConvertToMarkdown(pdfPath) (cs:81-86):
    logical name falls back to the file stem when no url is given."""
    with open(path, "rb") as f:
        data = f.read()
    if url is None:
        stem = path.rsplit("/", 1)[-1]
        stem = stem.rsplit(".", 1)[0] if "." in stem else stem
        # extract_document derives the logical name from the url path
        return extract_document(data, f"https://local/{stem or 'document'}", opt)
    return extract_document(data, url, opt)


def extract_from_stream(stream, url: str = "https://local/document", opt: ExtractOptions = DEFAULT_OPTIONS) -> dict:
    """Stream entry point — the analog of ConvertToMarkdown(Stream) (cs:95-113):
    non-seekable streams are drained; seekable streams have their position
    restored."""
    if stream.seekable():
        pos = stream.tell()
        data = stream.read()
        stream.seek(pos)
    else:
        data = stream.read()
    return extract_document(data, url, opt)


def page_layout(payload: bytes) -> tuple[list, list]:
    """Payload sniffing: ``%PDF-`` bytes take the from-scratch PDF word-box
    reader (``engine.pdf.parse_pdf_layout``); anything else takes the HTML
    layout parser.  Both return ``([(page_no, height, words)], hrefs)`` with
    the words as columns, so a corpus may mix encodings row by row."""
    if payload.startswith(b"%PDF-"):
        from .pdf import parse_pdf_layout

        return parse_pdf_layout(payload)
    return parse_layout(payload)


def extract_document(html: bytes, url: str, opt: ExtractOptions = DEFAULT_OPTIONS) -> dict:
    """Pure per-row extraction: bytes -> markdown + header struct + title + raw hrefs.

    Deterministic in (html, url, opt); safe under Ray task retries.  Either
    payload (``page_layout``) feeds the identical downstream pipeline.
    """
    raw_pages, hrefs = page_layout(html)
    pages = [
        build_lines(num, h, words, opt.line_y_tolerance) for num, h, words in raw_pages
    ]
    markdown, header, title = convert_pages_to_markdown(
        pages, logical_name_from_url(url), opt
    )
    return {
        "markdown": markdown,
        "title": title,
        "header_doc": header.get("doc"),
        "header_eff": header.get("eff"),
        "header_rev": header.get("rev"),
        "header_org": header.get("org"),
        "header_appr": header.get("appr"),
        "header_src": header.get("src"),
        "hrefs": hrefs,
    }
