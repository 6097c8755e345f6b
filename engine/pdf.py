"""From-scratch reader/writer for *uncompressed* PDF content streams.

The reference's raison d'être is PDF layout extraction via PdfPig
(``PdfToMarkdownConverter.cs:81-113``, ``SharePointCrawler.csproj:22``).  No
PDF library exists in this container, so this module implements the subset
of ISO 32000 the pipeline needs, from scratch:

- **reader** (``parse_pdf_layout``): body objects (``N 0 obj .. endobj``),
  the Catalog -> Pages -> Kids page tree, per-page ``/MediaBox`` and
  ``/Contents`` streams, text operators ``BT ET Tf Td TD Tm TL T* Tj TJ``
  with literal-string escapes (``\\( \\) \\\\ \\n`` + octal), and
  ``/Annots`` link annotations (``/Subtype /Link /A << /S /URI /URI (..)``)
  as the href source — the PdfPig ``GetWords()`` analog emitting
  ``(page_no, height, (left, mid_y, texts))`` word columns straight into the
  shared ``engine.extract.build_lines`` pipeline.
- **writer** (``render_pdf_page_bytes``): a valid single-file PDF 1.4 with a
  correct xref table, one ``Tm``-positioned ``Tj`` per word, link annots on
  the last page — the PDF twin of ``engine.synth``'s HTML layout encoding.
  ``compress=True`` emits ``/Filter /FlateDecode`` content streams.

Geometry convention (shared writer<->reader, mirrors the HTML encoding): the
``Tm`` y operand carries the word's vertical MIDLINE (the reference computes
``(BoundingBox.Top+BoundingBox.Bottom)/2`` at ``PdfToMarkdownConverter.cs:287``);
``Right = left + CHAR_WIDTH * len(text)`` uses the same fixed metric as the
HTML path.  Streams may be raw, ``/FlateDecode`` (stdlib zlib — what
PdfPig's corpus overwhelmingly uses), ``/LZWDecode`` (from-scratch TIFF-style
LZW with EarlyChange=1), ``/ASCIIHexDecode``, ``/ASCII85Decode``, or
``/RunLengthDecode``; remaining filters (DCT/CCITT/JBIG2/Crypt) raise.
Strings may be literal ``(..)`` or hex ``<..>``.
"""

from __future__ import annotations

import re
import zlib

import numpy as np

from .extract import CHAR_WIDTH

# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------

_OBJ_RE = re.compile(rb"(\d+)\s+\d+\s+obj\b(.*?)\bendobj", re.S)
_REF_RE = re.compile(rb"(\d+)\s+\d+\s+R\b")
_STREAM_RE = re.compile(rb"\bstream\r?\n(.*?)\r?\nendstream", re.S)
_NUM = rb"[+-]?\d+(?:\.\d+)?|[+-]?\.\d+"


_OBJ_HEAD_RE = re.compile(rb"(\d+)\s+\d+\s+obj\b")


def _object_at(data: bytes, pos: int):
    """Parse the object starting at byte ``pos`` -> (obj_num, body bytes).

    Unlike the lazy full-file scan, this jumps binary stream payloads via the
    direct /Length entry, so 'endobj' bytes INSIDE compressed data cannot
    truncate the object.  Returns (None, None) when no object header sits at
    (or within a few bytes of) ``pos``.
    """
    m = _OBJ_HEAD_RE.match(data, pos) or _OBJ_HEAD_RE.search(data, pos, pos + 32)
    if not m:
        return None, None
    start = m.end()
    sm = re.compile(rb"\bstream\r?\n").search(data, start, start + 4096)
    search_from = start
    if sm:
        lm = re.search(rb"/Length\s+(\d+)(?!\s+\d+\s+R)", data[start : sm.start()])
        if lm:
            search_from = sm.end() + int(lm.group(1))
    em = data.find(b"endobj", search_from)
    if em == -1:
        return None, None
    return int(m.group(1)), data[start:em]


def _parse_objstm(body: bytes) -> dict:
    """Inflate a /Type /ObjStm container (ISO 32000 §7.5.7): the decoded
    stream holds N (objnum, offset) integer pairs, then the packed object
    bodies at /First + offset.  PDF 1.5+ producers put most non-stream
    objects here; the reference reads them via PdfPig
    (``PdfToMarkdownConverter.cs:81-113``)."""
    dict_part = body.split(b"stream", 1)[0]
    raw = _extract_stream(body)
    if raw is None:
        return {}
    data = _decode_stream(dict_part, raw)
    n = int(re.search(rb"/N\s+(\d+)", dict_part).group(1))
    first = int(re.search(rb"/First\s+(\d+)", dict_part).group(1))
    nums = [int(x) for x in data[:first].split()]
    pairs = list(zip(nums[0::2], nums[1::2]))[:n]
    out = {}
    for i, (objnum, off) in enumerate(pairs):
        end = first + pairs[i + 1][1] if i + 1 < len(pairs) else len(data)
        out[objnum] = data[first + off : end]
    return out


def _xref_chain_objects(data: bytes, crypt=None) -> dict:
    """PDF 1.5+ path: walk the cross-reference STREAM chain from the trailing
    ``startxref`` (ISO 32000 §7.5.8) and resolve every live object — type-1
    entries parse at their byte offset, type-2 entries inflate out of their
    /Type /ObjStm container.  Raises for classic-xref files (the caller falls
    back to the full-file scan)."""
    sx = data.rfind(b"startxref")
    if sx == -1:
        raise ValueError("no startxref")
    pos: int | None = int(re.search(rb"startxref\s+(\d+)", data[sx:]).group(1))
    entries: dict = {}  # objnum -> (type, f2, f3); first-seen (newest) wins
    visited = set()
    while pos is not None and pos not in visited:
        visited.add(pos)
        _num, body = _object_at(data, pos)
        if body is None or not re.search(rb"/Type\s*/XRef\b", body):
            raise ValueError("startxref does not point at an xref stream")
        dict_part = body.split(b"stream", 1)[0]
        dat = _decode_stream(dict_part, _extract_stream(body))
        w = [int(x) for x in
             re.findall(rb"\d+", re.search(rb"/W\s*\[([^\]]*)\]", dict_part).group(1))]
        size = int(re.search(rb"/Size\s+(\d+)", dict_part).group(1))
        im = re.search(rb"/Index\s*\[([^\]]*)\]", dict_part)
        idx = ([int(x) for x in re.findall(rb"\d+", im.group(1))] if im else [0, size])
        rw = sum(w)
        rp = 0
        for s_, c_ in zip(idx[0::2], idx[1::2]):
            for objnum in range(s_, s_ + c_):
                row = dat[rp : rp + rw]
                rp += rw
                fields, o = [], 0
                for width in w:
                    fields.append(int.from_bytes(row[o : o + width], "big"))
                    o += width
                t = fields[0] if w[0] else 1  # W[0]==0 => type defaults to 1
                entries.setdefault(objnum, (t, fields[1], fields[2]))
        pm = re.search(rb"/Prev\s+(\d+)", dict_part)
        pos = int(pm.group(1)) if pm else None
    objs: dict = {}
    for objnum, (t, f2, _f3) in entries.items():
        if t == 1:
            _n, body = _object_at(data, f2)
            if body is not None:
                if crypt is not None and objnum != crypt.encrypt_objnum:
                    body = _crypt_body(crypt, objnum, body, encrypt=False)
                objs[objnum] = body
    objstm_cache: dict = {}
    for objnum, (t, f2, f3) in entries.items():
        if t != 2:
            continue
        if f2 not in objstm_cache:
            objstm_cache[f2] = _parse_objstm(objs[f2]) if f2 in objs else {}
        packed = objstm_cache[f2]
        if objnum in packed:
            objs[objnum] = packed[objnum]
    return objs


def _objects(data: bytes, crypt=None) -> dict:
    """Object map for the whole file.  Primary: the xref-STREAM walk (PDF
    1.5+, where most objects hide inside compressed /ObjStm containers and
    the classic scan cannot see them).  Fallback/augment: the classic
    ``N 0 obj`` full-file scan, plus inflation of any /ObjStm containers the
    scan itself finds (covers hybrid and damaged files).  With ``crypt``,
    every body is decrypted on the way in (except the encrypt dict and XRef
    streams); /ObjStm children come out of an already-decrypted container
    and are plaintext by construction (ISO 32000 §7.6.2)."""
    try:
        objs = _xref_chain_objects(data, crypt)
    except Exception:
        objs = {}
    for m in _OBJ_RE.finditer(data):
        num = int(m.group(1))
        if num in objs:
            continue
        body = m.group(2)
        if crypt is not None and num != crypt.encrypt_objnum:
            try:
                body = _crypt_body(crypt, num, body, encrypt=False)
            except Exception:
                pass  # damaged object: keep the raw body, scanner found it
        objs[num] = body
    for body in list(objs.values()):
        if re.search(rb"/Type\s*/ObjStm\b", body):
            try:
                for num, b in _parse_objstm(body).items():
                    objs.setdefault(num, b)
            except NotImplementedError:
                pass  # exotic filter on a container: scanner found the rest
    return objs


def _dict_value_ref(body: bytes, key: bytes):
    m = re.search(re.escape(key) + rb"\s+(\d+)\s+\d+\s+R", body)
    return int(m.group(1)) if m else None


def _unescape_pdf_bytes(raw: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(raw)
    while i < n:
        c = raw[i]
        if c == 0x5C and i + 1 < n:  # backslash
            d = raw[i + 1]
            if d in b"nrtbf":
                out.append({0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}[d])
                i += 2
            elif d in b"()\\":
                out.append(d)
                i += 2
            elif 0x30 <= d <= 0x37:  # octal, up to 3 digits
                j = i + 1
                oct_digits = b""
                while j < n and len(oct_digits) < 3 and 0x30 <= raw[j] <= 0x37:
                    oct_digits += raw[j : j + 1]
                    j += 1
                out.append(int(oct_digits, 8) & 0xFF)
                i = j
            elif d in b"\r\n":  # line continuation: backslash + EOL is dropped
                i += 2
                if d == 0x0D and i < n and raw[i] == 0x0A:
                    i += 1
            else:
                out.append(d)
                i += 2
        else:
            out.append(c)
            i += 1
    return bytes(out)


def _escape_pdf_string(s: str) -> bytes:
    return (
        s.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")
    ).encode("utf-8")


def _read_literal_string_bytes(data: bytes, i: int) -> tuple[bytes, int]:
    """data[i] == '(' -> (unescaped BYTES, index after closing paren).
    Handles nested balanced parens and backslash escapes (ISO 32000 7.3.4.2)."""
    assert data[i : i + 1] == b"("
    depth = 0
    j = i
    raw = bytearray()
    while j < len(data):
        c = data[j]
        if c == 0x5C:  # escape: copy both bytes verbatim for the unescaper
            raw += data[j : j + 2]
            j += 2
            continue
        if c == 0x28:
            depth += 1
            if depth > 1:
                raw.append(c)
        elif c == 0x29:
            depth -= 1
            if depth == 0:
                return _unescape_pdf_bytes(bytes(raw)), j + 1
            raw.append(c)
        else:
            raw.append(c)
        j += 1
    raise ValueError("unterminated PDF string")


def _read_hex_string_bytes(data: bytes, i: int) -> tuple[bytes, int]:
    """data[i] == '<' (and data[i+1] != '<') -> (BYTES, index after '>').
    ISO 32000 7.3.4.3: hex pairs, whitespace ignored, odd final digit padded
    with 0."""
    assert data[i : i + 1] == b"<"
    j = data.index(b">", i)
    digits = re.sub(rb"\s+", b"", data[i + 1 : j])
    if len(digits) % 2:
        digits += b"0"
    return bytes.fromhex(digits.decode("ascii")), j + 1


def _read_literal_string(data: bytes, i: int) -> tuple[str, int]:
    """The literal string at data[i], decoded as text."""
    raw, j = _read_literal_string_bytes(data, i)
    return raw.decode("utf-8", errors="replace"), j


def _read_hex_string(data: bytes, i: int) -> tuple[str, int]:
    """The hex string at data[i], decoded as text."""
    raw, j = _read_hex_string_bytes(data, i)
    return raw.decode("utf-8", errors="replace"), j


# ---------------------------------------------------------------------------
# Encryption (ISO 32000 §7.6, standard security handler with an empty user
# password — the protected-but-readable corporate PDF PdfPig opens
# transparently, PdfToMarkdownConverter.cs:81-113).  Crypto primitives and
# key derivation live in engine.pdfcrypt; this section is the file plumbing:
# find the /Encrypt dict, decrypt each object's strings + stream payload
# BEFORE filter decode (file layout is Encrypt(Filter(data))), leave /Type
# /XRef streams and the encrypt dict itself alone.
# ---------------------------------------------------------------------------


def _read_string_bytes(data: bytes, i: int) -> bytes:
    """The hex (``<..>``) or literal (``(..)``) string at data[i] as raw
    BYTES — file IDs and /O, /U values are binary."""
    if data[i : i + 1] == b"<":
        return _read_hex_string_bytes(data, i)[0]
    return _read_literal_string_bytes(data, i)[0]


def _encryption_handler(data: bytes):
    """Build a StandardSecurityHandler from the file's trailer, or None for
    unencrypted files.  The /Encrypt reference and /ID live in the classic
    trailer dict or the XRef stream dict; the newest (last) wins.  The
    encrypt dictionary object itself is never encrypted and never packed in
    an /ObjStm, so a direct header scan finds it."""
    matches = list(re.finditer(rb"/Encrypt\s+(\d+)\s+\d+\s+R", data))
    if not matches:
        return None
    from .pdfcrypt import StandardSecurityHandler

    enc_num = int(matches[-1].group(1))
    ids = list(re.finditer(rb"/ID\s*\[\s*[<(]", data))
    file_id = _read_string_bytes(data, ids[-1].end() - 1) if ids else b""
    body = None
    for m in re.finditer(rb"(?m)^%d\s+\d+\s+obj\b" % enc_num, data):
        # dict-only object: take the balanced << .. >> directly — _object_at
        # would misread the dict's own /Length 128 (KEY BITS) as a stream
        # length and overrun
        span = _dict_span(data[m.end() : m.end() + 8192])
        if span.startswith(b"<<"):
            body = span
            break
    if body is None:
        return None
    crypt = StandardSecurityHandler.from_encrypt_dict(body, file_id)
    crypt.encrypt_objnum = enc_num
    return crypt


def _dict_span(body: bytes) -> bytes:
    """The balanced ``<< .. >>`` slice of an object body — _object_at's
    /Length-based jump can overshoot past a dict-only object into its
    neighbour, and the encrypt-dict parser must not read the neighbour's
    /Length or /R keys."""
    i = body.find(b"<<")
    if i < 0:
        return body
    depth, j = 0, i
    while j < len(body) - 1:
        if body[j : j + 2] == b"<<":
            depth += 1
            j += 2
        elif body[j : j + 2] == b">>":
            depth -= 1
            j += 2
            if depth == 0:
                return body[i:j]
        else:
            j += 1
    return body[i:]


def _crypt_strings(crypt, num: int, head: bytes, encrypt: bool) -> bytes:
    """Transform every string token in a dict/body region through the
    handler, re-emitting each as a hex string (binary-safe either way)."""
    op = crypt.encrypt if encrypt else crypt.decrypt
    out = bytearray()
    i, n = 0, len(head)
    while i < n:
        c = head[i]
        if c == 0x28:  # literal string
            raw, j = _read_literal_string_bytes(head, i)
            out += b"<" + op(num, 0, raw).hex().encode("ascii") + b">"
            i = j
        elif c == 0x3C and head[i + 1 : i + 2] == b"<":  # dict open
            out += b"<<"
            i += 2
        elif c == 0x3C:  # hex string
            raw, i = _read_hex_string_bytes(head, i)
            out += b"<" + op(num, 0, raw).hex().encode("ascii") + b">"
        else:
            out.append(c)
            i += 1
    return bytes(out)


_LENGTH_DIRECT_RE = re.compile(rb"/Length\s+\d+(?!\s+\d+\s+R)")


def _crypt_body(crypt, num: int, body: bytes, encrypt: bool) -> bytes:
    """Decrypt (or encrypt) one object body: stream payload first (the file
    stores Encrypt(Filter(data)), so decryption precedes _decode_stream),
    then every string outside the stream; /Length is rewritten because AES
    adds IV + padding.  XRef streams pass through untouched (never
    encrypted, ISO 32000 §7.5.8.2)."""
    if re.search(rb"/Type\s*/XRef\b", body):
        return body
    sm = re.search(rb"\bstream\r?\n", body)
    if not sm:
        return _crypt_strings(crypt, num, body, encrypt)
    head = body[: sm.start()]
    raw = _extract_stream(body)
    if raw is None:
        return _crypt_strings(crypt, num, body, encrypt)
    payload = (crypt.encrypt if encrypt else crypt.decrypt)(num, 0, raw)
    head = _crypt_strings(crypt, num, head, encrypt)
    head = _LENGTH_DIRECT_RE.sub(b"/Length %d" % len(payload), head, count=1)
    return head + b"stream\n" + payload + b"\nendstream"


# ---------------------------------------------------------------------------
# Stream filters (ISO 32000 §7.4): Flate via stdlib zlib, the rest from
# scratch.  Encoders exist so the writer can emit every filter it reads.
# ---------------------------------------------------------------------------


def encode_ascii_hex(data: bytes) -> bytes:
    import binascii

    return binascii.hexlify(data) + b">"


def decode_ascii_hex(data: bytes) -> bytes:
    import binascii

    end = data.find(b">")
    if end != -1:
        data = data[:end]
    digits = re.sub(rb"\s+", b"", data)
    if len(digits) % 2:  # odd final digit: implied trailing 0
        digits += b"0"
    return binascii.unhexlify(digits)


def encode_ascii85(data: bytes) -> bytes:
    import base64

    return base64.a85encode(data) + b"~>"


def decode_ascii85(data: bytes) -> bytes:
    import base64

    end = data.find(b"~>")
    if end != -1:
        data = data[:end]
    return base64.a85decode(re.sub(rb"\s+", b"", data))


def encode_run_length(data: bytes) -> bytes:
    """§7.4.5: runs of 2-128 identical bytes -> (257-run, byte); literal
    spans of 1-128 bytes -> (len-1, bytes); 128 = EOD."""
    out = bytearray()
    i, n = 0, len(data)
    while i < n:
        run = 1
        while i + run < n and data[i + run] == data[i] and run < 128:
            run += 1
        if run >= 2:
            out.append(257 - run)
            out.append(data[i])
            i += run
        else:
            j = i + 1
            while j < n and j - i < 128 and (j + 1 >= n or data[j] != data[j + 1]):
                j += 1
            out.append(j - i - 1)
            out += data[i:j]
            i = j
    out.append(128)
    return bytes(out)


def decode_run_length(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        length = data[i]
        if length == 128:  # EOD
            break
        if length < 128:
            out += data[i + 1 : i + 2 + length]
            i += 2 + length
        else:
            out += bytes([data[i + 1]]) * (257 - length)
            i += 2
    return bytes(out)


_LZW_CLEAR = 256
_LZW_EOD = 257


def encode_lzw(data: bytes, early: int = 1) -> bytes:
    """§7.4.4 TIFF-style LZW, MSB-first variable 9-12 bit codes,
    EarlyChange=1 (the PDF default): code width grows one code early."""
    out = bytearray()
    bitbuf = 0
    nbits = 0
    width = 9

    def emit(code: int) -> None:
        nonlocal bitbuf, nbits
        bitbuf = (bitbuf << width) | code
        nbits += width
        while nbits >= 8:
            out.append((bitbuf >> (nbits - 8)) & 0xFF)
            nbits -= 8

    def fresh():
        return {bytes([i]): i for i in range(256)}

    table = fresh()
    next_code = 258
    emit(_LZW_CLEAR)
    w = b""
    for b in data:
        wc = w + bytes([b])
        if wc in table:
            w = wc
            continue
        emit(table[w])
        table[wc] = next_code
        next_code += 1
        if next_code >= (1 << width) - early and width < 12:
            width += 1
        if next_code >= 4096 - early:  # table full: clear and restart
            emit(_LZW_CLEAR)
            table = fresh()
            next_code = 258
            width = 9
        w = bytes([b])
    if w:
        emit(table[w])
    emit(_LZW_EOD)
    if nbits:
        out.append((bitbuf << (8 - nbits)) & 0xFF)
    return bytes(out)


def decode_lzw(data: bytes, early: int = 1) -> bytes:
    out = bytearray()
    table: dict = {}
    next_code = 258
    width = 9
    prev: bytes | None = None
    bitbuf = 0
    nbits = 0
    for byte in data:
        bitbuf = (bitbuf << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (bitbuf >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == _LZW_CLEAR:
                table = {}
                next_code = 258
                width = 9
                prev = None
                continue
            if code == _LZW_EOD:
                return bytes(out)
            if prev is None:
                entry = bytes([code]) if code < 256 else table[code]
            else:
                if code < 256:
                    entry = bytes([code])
                elif code in table:
                    entry = table[code]
                elif code == next_code:
                    entry = prev + prev[:1]  # the KwKwK case
                else:
                    raise ValueError("corrupt LZW stream: code out of range")
                table[next_code] = prev + entry[:1]
                next_code += 1
                # the decoder's table lags the encoder's by one entry (it
                # can only add after seeing the NEXT code), so its width
                # bump fires one code earlier than the encoder's counter
                # comparison to stay bit-synchronized
                if next_code + 1 >= (1 << width) - early and width < 12:
                    width += 1
            out += entry
            prev = entry
    return bytes(out)


_STREAM_DECODERS = {
    b"FlateDecode": zlib.decompress,
    b"LZWDecode": decode_lzw,
    b"ASCIIHexDecode": decode_ascii_hex,
    b"ASCII85Decode": decode_ascii85,
    b"RunLengthDecode": decode_run_length,
}

# writer-side encoders, keyed by the /Filter name the reader will see
STREAM_ENCODERS = {
    "FlateDecode": lambda d: zlib.compress(d, 9),
    "LZWDecode": encode_lzw,
    "ASCIIHexDecode": encode_ascii_hex,
    "ASCII85Decode": encode_ascii85,
    "RunLengthDecode": encode_run_length,
}


_IMAGE_FILTERS = frozenset((b"DCTDecode", b"CCITTFaxDecode", b"JBIG2Decode", b"JPXDecode"))


def _decode_stream(dict_part: bytes, raw: bytes, skip_images: bool = False):
    """Apply the stream dict's /Filter chain.  Flate/LZW/AHx/A85/RL are
    implemented (LZW with either /EarlyChange variant); image/crypt filters
    keep the honest boundary and raise — except under ``skip_images=True``
    (the TEXT extractor's mode, VERDICT r3 next-round #7), where image-class
    filters (DCT/CCITT/JBIG2/JPX) return None so one embedded picture can't
    abort a whole document's text."""
    fm = re.search(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)", dict_part)
    if not fm:
        return raw
    lzw_early = 0 if re.search(rb"/EarlyChange\s+0", dict_part) else 1
    filters = re.findall(rb"/([A-Za-z0-9]+)", fm.group(1))
    for f in filters:
        if f == b"LZWDecode":
            raw = decode_lzw(raw, early=lzw_early)
            continue
        dec = _STREAM_DECODERS.get(f)
        if dec is None:
            if skip_images and f in _IMAGE_FILTERS:
                return None
            raise NotImplementedError(
                "PDF stream filter /%s is not supported (from-scratch reader "
                "handles raw, Flate, LZW, ASCIIHex, ASCII85 and RunLength "
                "streams)" % f.decode("ascii")
            )
        raw = dec(raw)
    return raw


def _extract_stream(cbody: bytes):
    """Object body -> raw stream bytes, preferring the /Length entry (binary
    flate data may contain 'endstream' by chance; the keyword scan is only
    the fallback for files without a direct-integer /Length)."""
    sm = re.search(rb"\bstream\r?\n", cbody)
    if not sm:
        return None
    start = sm.end()
    lm = re.search(rb"/Length\s+(\d+)(?!\s+\d+\s+R)", cbody[: sm.start()])
    if lm:
        return cbody[start : start + int(lm.group(1))]
    em = _STREAM_RE.search(cbody)
    return em.group(1) if em else None


# One token after optional whitespace: a number, a name, a bracket, an
# operator, or a literal string with no escape and no nested paren.  Every
# other position (hex strings, << >>, escaped or nested literals, unknown
# bytes) falls back to the per-position code in _parse_content.
_CONTENT_TOKEN_RE = re.compile(
    rb"\s*(?:(" + _NUM + rb")|(/[^\s/\[\]()<>]+)|(\[|\])"
    rb"|(BT|ET|Tf|Td|TD|Tm|TL|T\*|Tj|TJ|Tc|Tw|Tz|q|Q|cm|re|[fWnS])|\(([^()\\]*)\))"
)
_NUM_TOKEN, _NAME_TOKEN, _BRACKET_TOKEN, _STRING_TOKEN = 1, 2, 3, 5  # group 4: operator

_IDENTITY = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _mat_mult(m1: tuple, m2: tuple) -> tuple:
    """m1 x m2 for PDF 6-tuples (a b c d e f) == [[a,b,0],[c,d,0],[e,f,1]]."""
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        e1 * a2 + f1 * c2 + e2,
        e1 * b2 + f1 * d2 + f2,
    )


def _translate(tx: float, ty: float) -> tuple:
    return (1.0, 0.0, 0.0, 1.0, tx, ty)


def _parse_content(stream: bytes) -> tuple:
    """Text ops -> the words as columns ``(left, mid_y, texts)``: two float64
    arrays and a list, one entry per whitespace word.

    Position state per ISO 32000 9.4.2: Td/TD translate the LINE matrix, Tm
    sets it absolutely, T* advances by the leading; Tj/TJ emit at the text
    matrix's current point (composed with the CTM) and advance x by the fixed
    CHAR_WIDTH metric (+1 char per space).

    Text state (9.3): ``Tc`` char spacing adds to every char advance, ``Tw``
    word spacing adds to every space advance, ``Tz`` scales all horizontal
    advances by percent/100.  Graphics state (8.4): ``cm`` COMPOSES onto the
    CTM (full affine 6-tuple algebra — emitted positions are tm x ctm), and
    ``q``/``Q`` push/pop (ctm, Tc, Tw, Tz).  Rotation components flow through
    the matrix math but downstream line-building assumes upright text (the
    reference's PdfPig path has the same practical assumption).

    Tokenizing: one ``_CONTENT_TOKEN_RE`` match per token; a position it
    does not match takes the per-position branch below.
    """
    xs, ys, texts = [], [], []
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
                xs.append(trm[4])
                ys.append(trm[5])
                texts.append(piece)
                tm = _mat_mult(_translate(adv_char * len(piece), 0.0), tm)
            tm = _mat_mult(_translate(adv_space, 0.0), tm)

    while i < n:
        m = _CONTENT_TOKEN_RE.match(stream, i)
        if m is None:
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
            i += 1  # unknown byte: skip (defensive; real files stay in-grammar)
            continue
        i = m.end()
        kind = m.lastindex
        if kind == _NUM_TOKEN:
            (in_array if in_array is not None else stack).append(float(m[1]))
        elif kind == _STRING_TOKEN:
            s = m[5].decode("utf-8", errors="replace")
            (in_array if in_array is not None else stack).append(s)
        elif kind == _NAME_TOKEN:
            stack.append(m[2].decode("latin-1"))
        elif kind == _BRACKET_TOKEN:
            if m[3] == b"[":
                in_array = []
            else:
                stack.append(in_array)
                in_array = None
        else:  # operator
            o = m[4].decode("latin-1")
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
    return (np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), texts)


def _contents_refs(page_body: bytes) -> list:
    """/Contents as a single ref OR an array of refs (ISO 32000 7.7.3.3 —
    parts concatenate into one logical content stream)."""
    m = re.search(rb"/Contents\s*\[(.*?)\]", page_body, re.S)
    if m:
        return [int(r.group(1)) for r in _REF_RE.finditer(m.group(1))]
    r = _dict_value_ref(page_body, b"/Contents")
    return [r] if r is not None else []


def _page_annot_uris(objs: dict, page_body: bytes) -> list:
    m = re.search(rb"/Annots\s*\[(.*?)\]", page_body, re.S)
    if not m:
        return []
    uris = []
    for ref in _REF_RE.finditer(m.group(1)):
        body = objs.get(int(ref.group(1)), b"")
        if b"/Link" not in body:
            continue
        um = re.search(rb"/URI\s*([(<])", body)
        if um:
            if um.group(1) == b"(":
                s, _ = _read_literal_string(body, um.end() - 1)
            else:
                s, _ = _read_hex_string(body, um.end() - 1)
            uris.append(s)
    return uris


def parse_pdf_layout(data: bytes) -> tuple[list, list]:
    """PDF bytes -> ([(page_no, height, words)], hrefs).

    ``words`` is the page's words as columns ``(left, mid_y, texts)``: two
    float64 arrays and a list, in content-stream order, the parts of a
    ``/Contents`` array one after another.  Drop-in twin of
    ``engine.extract.parse_layout`` for ``%PDF-`` payloads: the output feeds
    the same build_lines -> convert_pages_to_markdown pipeline
    byte-identically.
    """
    if not data.startswith(b"%PDF-"):
        raise ValueError("not a PDF: missing %PDF- header")
    objs = _objects(data, _encryption_handler(data))
    catalog = next(
        (b for b in objs.values() if b"/Type" in b and b"/Catalog" in b), None
    )
    if catalog is None:
        raise ValueError("no /Catalog object")
    pages_ref = _dict_value_ref(catalog, b"/Pages")

    # Walk the page TREE (ISO 32000 7.7.3.2): real producers balance pages
    # across intermediate /Pages nodes, so /Kids entries may be further
    # /Pages nodes, not leaves — recurse depth-first in Kids order (the
    # document's page order).  A flat Kids list (our writer) is the
    # single-level special case.
    mb_re = re.compile(
        rb"/MediaBox\s*\[\s*(" + _NUM + rb")\s+(" + _NUM + rb")\s+("
        + _NUM + rb")\s+(" + _NUM + rb")\s*\]"
    )

    def leaf_pages(ref: int, inherited_h: float | None, seen=None) -> list:
        """[(leaf_ref, effective_page_height)]: /MediaBox is INHERITABLE
        (ISO 32000 7.7.3.4) — real producers put one box on the root
        /Pages node and none on the leaves."""
        seen = seen if seen is not None else set()
        if ref in seen:  # cycle guard: corrupt files must not hang
            return []
        seen.add(ref)
        body = objs.get(ref)
        if body is None:
            return []
        mb = mb_re.search(body)
        h = float(mb.group(4)) if mb else inherited_h
        km = re.search(rb"/Kids\s*\[(.*?)\]", body, re.S)
        if km is None or re.search(rb"/Type\s*/Page\b(?!s)", body):
            return [(ref, h if h is not None else 792.0)]
        out = []
        for m in _REF_RE.finditer(km.group(1)):
            out.extend(leaf_pages(int(m.group(1)), h, seen))
        return out

    kid_refs = leaf_pages(pages_ref, None)

    pages, hrefs = [], []
    for page_no, (kr, height) in enumerate(kid_refs, 1):
        body = objs[kr]
        # the parts of a /Contents array are ONE content stream (ISO 32000
        # 7.8.2): text and graphics state carry across part boundaries
        parts = []
        for contents_ref in _contents_refs(body):
            cbody = objs.get(contents_ref)
            if cbody is None:
                continue
            dict_part = cbody.split(b"stream", 1)[0]
            raw = _extract_stream(cbody)
            if raw is None:
                continue
            # skip_images: an image-class part of a contents array (or an
            # XObject mislinked as contents) is ignored, not a document abort
            decoded = _decode_stream(dict_part, raw, skip_images=True)
            if decoded is not None:
                parts.append(decoded)
        pages.append((page_no, height, _parse_content(b"\n".join(parts))))
        hrefs.extend(_page_annot_uris(objs, body))
    return pages, hrefs


# ---------------------------------------------------------------------------
# Writer (the synth-side PDF twin of the HTML layout encoding)
# ---------------------------------------------------------------------------

PAGE_WIDTH = 612.0


def render_pdf_page_bytes(
    word_pages: list, hrefs: list, compress: bool = False,
    stream_filter: str | None = None, xref_stream: bool = False,
    images: list | None = None, encrypt: str | None = None,
) -> bytes:
    """[(page_no, height, [(x, y, word)])] + hrefs -> a valid PDF.

    One ``Tm``-positioned ``Tj`` per word (y = midline, see module note);
    link annotations for every href attached to the LAST page in order
    (matching the HTML encoding's trailing <nav> block).  ``compress=True``
    emits ``/Filter /FlateDecode`` content streams (deterministic zlib
    level 9), matching what real-world PDF producers write;
    ``stream_filter`` picks any other supported filter by name
    (``"LZWDecode"``, ``"ASCIIHexDecode"``, ``"ASCII85Decode"``,
    ``"RunLengthDecode"``) so every reader path has a writer twin.

    ``xref_stream=True`` emits the post-2010 PDF 1.5 layout instead of the
    classic table: every non-stream object (catalog, page tree, pages,
    annots) packed into one Flate /Type /ObjStm container, content streams
    as classic objects, and a /Type /XRef cross-reference STREAM (W [1 4 2],
    type-2 entries for the packed objects) as the trailer — the writer twin
    of ``_xref_chain_objects``/``_parse_objstm``.

    ``encrypt`` ∈ {"rc4-40", "rc4-128", "aes-128"} emits the standard
    security handler with an EMPTY user password (the corporate
    protected-but-readable file PdfPig opens silently): every string and
    stream is encrypted under the Algorithm-1 per-object key, the /Encrypt
    dict + /ID land in the trailer, and — in the xref_stream layout — the
    /ObjStm container is encrypted as one stream while the XRef stream
    stays plaintext (ISO 32000 §7.5.8.2).  The writer twin of
    ``_encryption_handler``/``_crypt_body``; the file ID is deterministic
    (MD5 of the plaintext bodies) so goldens stay byte-stable.
    """
    if compress and stream_filter is None:
        stream_filter = "FlateDecode"
    if xref_stream and stream_filter is None:
        stream_filter = "FlateDecode"  # the realistic 1.5 producer default
    if stream_filter is not None and stream_filter not in STREAM_ENCODERS:
        raise ValueError(f"unsupported stream filter {stream_filter!r}")
    n_pages = len(word_pages)
    objects: list = []  # (obj_num, body_bytes) in file order

    # object numbering: 1=catalog, 2=pages, then per page: page obj + content
    # obj, then annot objects
    page_obj = [3 + 2 * i for i in range(n_pages)]
    content_obj = [4 + 2 * i for i in range(n_pages)]
    first_annot = 3 + 2 * n_pages
    annot_obj = [first_annot + i for i in range(len(hrefs))]
    # image XObjects: (page_idx, width, height, filter_name|None, payload)
    images = images or []
    first_img = first_annot + len(hrefs)
    img_obj = [first_img + i for i in range(len(images))]
    imgs_on_page: dict = {}
    for j, (pidx, *_rest) in enumerate(images):
        imgs_on_page.setdefault(pidx, []).append(j)

    objects.append((1, b"<< /Type /Catalog /Pages 2 0 R >>"))
    kids = b" ".join(b"%d 0 R" % p for p in page_obj)
    objects.append((2, b"<< /Type /Pages /Kids [" + kids + b"] /Count %d >>" % n_pages))

    for i, (_no, height, words) in enumerate(word_pages):
        parts = [b"BT /F1 12 Tf"]
        for x, y, w in words:
            parts.append(
                b"1 0 0 1 %.1f %.1f Tm (%s) Tj" % (x, y, _escape_pdf_string(w))
            )
        parts.append(b"ET")
        for j in imgs_on_page.get(i, ()):
            _pi, iw, ih = images[j][:3]
            parts.append(b"q %d 0 0 %d 36 36 cm /Im%d Do Q" % (iw, ih, j))
        content = b"\n".join(parts)
        page = (
            b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 %.1f %.1f] "
            b"/Contents %d 0 R" % (PAGE_WIDTH, height, content_obj[i])
        )
        if i in imgs_on_page:
            xdict = b" ".join(
                b"/Im%d %d 0 R" % (j, img_obj[j]) for j in imgs_on_page[i])
            page += b" /Resources << /XObject << " + xdict + b" >> >>"
        if i == n_pages - 1 and annot_obj:
            refs = b" ".join(b"%d 0 R" % a for a in annot_obj)
            page += b" /Annots [" + refs + b"]"
        page += b" >>"
        objects.append((page_obj[i], page))
        if stream_filter is not None:
            payload = STREAM_ENCODERS[stream_filter](content)
            cdict = b"<< /Length %d /Filter /%s >>" % (
                len(payload), stream_filter.encode("ascii"))
        else:
            payload = content
            cdict = b"<< /Length %d >>" % len(payload)
        objects.append(
            (
                content_obj[i],
                cdict + b"\nstream\n" + payload + b"\nendstream",
            )
        )

    for j, href in enumerate(hrefs):
        objects.append(
            (
                annot_obj[j],
                b"<< /Type /Annot /Subtype /Link /Rect [0 0 0 0] "
                b"/A << /Type /Action /S /URI /URI (" + _escape_pdf_string(href) + b") >> >>",
            )
        )

    for j, img in enumerate(images):
        _pidx, iw, ih, fname, payload = img[:5]
        extra = img[5] if len(img) > 5 else None
        if extra is None:
            idict = (b"<< /Type /XObject /Subtype /Image /Width %d /Height %d "
                     b"/ColorSpace /DeviceRGB /BitsPerComponent 8" % (iw, ih))
        else:
            # caller-specified sample layout (e.g. CCITT: 1-bit DeviceGray +
            # /DecodeParms), appended verbatim after Width/Height
            idict = (b"<< /Type /XObject /Subtype /Image /Width %d /Height %d "
                     % (iw, ih)) + extra
        if fname is not None:
            idict += b" /Filter /" + fname.encode("ascii")
        idict += b" /Length %d >>" % len(payload)
        objects.append((img_obj[j],
                        idict + b"\nstream\n" + payload + b"\nendstream"))

    crypt = None
    trailer_extra = b""
    if encrypt is not None:
        import hashlib as _hl

        from .pdfcrypt import StandardSecurityHandler

        fid = _hl.md5(b"".join(b for _n, b in objects)).digest()
        crypt = StandardSecurityHandler.for_writing(encrypt, fid)
        enc_num = max(n for n, _ in objects) + 1 + (2 if xref_stream else 0)
        crypt.encrypt_objnum = enc_num
        trailer_extra = (b" /Encrypt %d 0 R /ID [<%s> <%s>]"
                         % (enc_num, fid.hex().encode("ascii"),
                            fid.hex().encode("ascii")))

    if xref_stream:
        return _assemble_xref_stream_pdf(
            objects, set(content_obj) | set(img_obj),
            crypt=crypt, trailer_extra=trailer_extra)

    if crypt is not None:
        objects = [(n, _crypt_body(crypt, n, b, encrypt=True))
                   for n, b in objects]
        objects.append((crypt.encrypt_objnum, crypt.encrypt_dict_body()))

    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num, body in objects:
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"
    xref_pos = len(out)
    max_obj = max(offsets) if offsets else 0
    out += b"xref\n0 %d\n" % (max_obj + 1)
    out += b"0000000000 65535 f \n"
    for num in range(1, max_obj + 1):
        out += b"%010d 00000 n \n" % offsets.get(num, 0)
    out += (
        b"trailer\n<< /Size %d /Root 1 0 R" % (max_obj + 1) + trailer_extra
        + b" >>\nstartxref\n%d\n%%%%EOF\n" % xref_pos
    )
    return bytes(out)


def _assemble_xref_stream_pdf(objects: list, stream_obj_nums: set,
                              crypt=None, trailer_extra: bytes = b"") -> bytes:
    """PDF 1.5 assembly: non-stream objects packed into one /ObjStm, stream
    objects classic, a /Type /XRef stream as the only trailer.  With
    ``crypt``: classic stream objects are encrypted individually, the
    /ObjStm container is encrypted as ONE stream under its own object key
    (its packed children are thereby covered and carry no per-object
    crypto, ISO 32000 §7.6.2), the encrypt dict rides as a classic
    plaintext object, and the XRef stream stays plaintext."""
    packable = [(n, b) for n, b in objects if n not in stream_obj_nums]
    classic = [(n, b) for n, b in objects if n in stream_obj_nums]
    if crypt is not None:
        classic = [(n, _crypt_body(crypt, n, b, encrypt=True))
                   for n, b in classic]

    pairs, bodies, off = [], [], 0
    for num, body in packable:
        pairs.append(b"%d %d" % (num, off))
        bodies.append(body)
        off += len(body) + 1  # "\n" separator between packed bodies
    header = b" ".join(pairs) + b"\n"
    objstm_data = header + b"\n".join(bodies)
    payload = zlib.compress(objstm_data, 9)

    objstm_num = max(n for n, _ in objects) + 1
    xref_num = objstm_num + 1
    if crypt is not None:
        # file layout is Encrypt(Filter(data)): compress, THEN encrypt
        payload = crypt.encrypt(objstm_num, 0, payload)
        classic.append((crypt.encrypt_objnum, crypt.encrypt_dict_body()))
    objstm_body = (
        b"<< /Type /ObjStm /N %d /First %d /Length %d /Filter /FlateDecode >>"
        b"\nstream\n" % (len(packable), len(header), len(payload))
        + payload + b"\nendstream"
    )

    out = bytearray(b"%PDF-1.5\n")
    offsets = {}
    offsets[objstm_num] = len(out)
    out += b"%d 0 obj\n" % objstm_num + objstm_body + b"\nendobj\n"
    for num, body in classic:
        offsets[num] = len(out)
        out += b"%d 0 obj\n" % num + body + b"\nendobj\n"

    xref_pos = len(out)
    size = (max(offsets) if offsets else xref_num) + 1
    if xref_num >= size:
        size = xref_num + 1
    packed_index = {num: i for i, (num, _b) in enumerate(packable)}
    rows = bytearray()

    def row(t: int, f2: int, f3: int) -> None:
        rows.append(t)
        rows.extend(f2.to_bytes(4, "big") + f3.to_bytes(2, "big"))

    row(0, 0, 65535)  # obj 0: head of the free list
    for num in range(1, size):
        if num in packed_index:
            row(2, objstm_num, packed_index[num])
        elif num == xref_num:
            row(1, xref_pos, 0)
        else:
            row(1, offsets[num], 0)
    xpayload = zlib.compress(bytes(rows), 9)
    out += (
        b"%d 0 obj\n<< /Type /XRef /Size %d /W [1 4 2] /Root 1 0 R"
        % (xref_num, size) + trailer_extra
        + b" /Length %d /Filter /FlateDecode >>\nstream\n" % len(xpayload)
        + xpayload + b"\nendstream\nendobj\nstartxref\n%d\n%%%%EOF\n" % xref_pos
    )
    return bytes(out)


def extract_pdf_images(data: bytes) -> list:
    """Every image XObject in the file -> list of dicts
    ``{obj, width, height, filter, payload}``.

    Pre-filters in the chain (Flate/LZW/AHx/A85/RL) are decoded; when the
    chain ends in an image-class filter the dict's ``filter`` names it and
    ``payload`` is that filter's input verbatim (e.g. ``DCTDecode`` ->
    the embedded JPEG file bytes, ready for a codec-side decode); with no
    image-class filter, ``filter`` is None and ``payload`` is the raw
    decoded sample bytes.  The reference's PdfPig exposes the same
    ``IPdfImage.RawBytes`` surface (UglyToad.PdfPig.Content.IPdfImage).
    """
    out = []
    for num, body in sorted(_objects(data, _encryption_handler(data)).items()):
        send = body.find(b"stream")
        dpart = body if send < 0 else body[:send]
        if not re.search(rb"/Subtype\s*/Image\b", dpart):
            continue
        raw = _extract_stream(body)
        wm = re.search(rb"/Width\s+(\d+)", dpart)
        hm = re.search(rb"/Height\s+(\d+)", dpart)
        if raw is None or wm is None or hm is None:
            continue
        fm = re.search(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)", dpart)
        filters = re.findall(rb"/([A-Za-z0-9]+)", fm.group(1)) if fm else []
        img_filter = None
        payload = raw
        for f in filters:
            if f in _IMAGE_FILTERS:
                img_filter = f.decode("ascii")
                break
            dec = _STREAM_DECODERS.get(f)
            if dec is None:
                raise NotImplementedError(
                    "PDF image pre-filter /%s is not supported"
                    % f.decode("ascii"))
            payload = dec(payload)
        out.append({"obj": num, "width": int(wm.group(1)),
                    "height": int(hm.group(1)), "filter": img_filter,
                    "payload": payload, "dict": dpart})
    return out
