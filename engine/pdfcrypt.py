"""ISO 32000 §7.6 standard security handler, from scratch.

The reference opens password-protected-but-readable corporate PDFs
transparently through PdfPig (``PdfToMarkdownConverter.cs:81-113``,
``SharePointCrawler.csproj:22``): the common SharePoint SOP library case is
an /Encrypt dictionary with an EMPTY user password, where the viewer derives
the file key from the padding constant alone and decrypts silently.  This
module implements that surface for the three revisions that cover virtually
every such file:

- **RC4-40**  (V1 / R2) — the PDF 1.1 default,
- **RC4-128** (V2 / R3, /Length 128) — the Acrobat 5 default,
- **AES-128** (V4 / R4, crypt filter /AESV2, CBC with a 16-byte prepended
  IV and PKCS#5 padding) — the Acrobat 7 default,
- **AES-256** (V5 / R6, /AESV3, ISO 32000-2 §7.6.4 with the Algorithm-2.B
  hardened SHA-2 hash and UE-wrapped file key) — the Acrobat X+ default.

Everything is pure Python: RC4 is the classic KSA/PRGA, AES-128/256 is a
direct FIPS-197 implementation (S-box, key schedule, 10/14 rounds), and the
key derivation is Algorithms 2/3/4/5 from ISO 32000-1 §7.6.3 plus
Algorithms 2.A/2.B/8/9 from ISO 32000-2.  Per-object keys are Algorithm 1
(MD5 over file key + objnum/gen LE bytes, + the ``sAlT`` suffix for AES);
V5 uses the file key directly.  The writer twin
(``engine.pdf.render_pdf_page_bytes`` ``encrypt=`` modes) emits /O /U (/OE
/UE /Perms for V5) values this handler verifies, so every reader path has
an in-repo encrypted corpus.
"""

from __future__ import annotations

import hashlib
import re
import struct

# ISO 32000-1 §7.6.3.3, the 32-byte password padding constant
PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


# ---------------------------------------------------------------------------
# RC4 (KSA + PRGA)
# ---------------------------------------------------------------------------


def rc4(key: bytes, data: bytes) -> bytes:
    S = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + S[i] + key[i % klen]) & 0xFF
        S[i], S[j] = S[j], S[i]
    out = bytearray(len(data))
    i = j = 0
    for n, c in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + S[i]) & 0xFF
        S[i], S[j] = S[j], S[i]
        out[n] = c ^ S[(S[i] + S[j]) & 0xFF]
    return bytes(out)


# ---------------------------------------------------------------------------
# AES-128 (FIPS-197), ECB block primitives + CBC mode
# ---------------------------------------------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    return (a ^ 0x1B) & 0xFF if a & 0x100 else a


_MUL2 = [_xtime(x) for x in range(256)]
_MUL3 = [_MUL2[x] ^ x for x in range(256)]
_MUL9 = [_MUL2[_MUL2[_MUL2[x]]] ^ x for x in range(256)]
_MUL11 = [_MUL2[_MUL2[_MUL2[x]]] ^ _MUL2[x] ^ x for x in range(256)]
_MUL13 = [_MUL2[_MUL2[_MUL2[x]]] ^ _MUL2[_MUL2[x]] ^ x for x in range(256)]
_MUL14 = [_MUL2[_MUL2[_MUL2[x]]] ^ _MUL2[_MUL2[x]] ^ _MUL2[x] for x in range(256)]


def _expand_key(key: bytes) -> list:
    """FIPS-197 key schedule: 128-bit key -> 11 round keys, 256-bit -> 15
    (Nk=8 adds the extra SubWord at i % Nk == 4)."""
    nk = len(key) // 4
    nr = nk + 6
    words = [list(key[4 * i : 4 * i + 4]) for i in range(nk)]
    for i in range(nk, 4 * (nr + 1)):
        t = list(words[i - 1])
        if i % nk == 0:
            t = t[1:] + t[:1]
            t = [_SBOX[b] for b in t]
            t[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            t = [_SBOX[b] for b in t]
        words.append([a ^ b for a, b in zip(words[i - nk], t)])
    return [bytes(sum(words[4 * r : 4 * r + 4], [])) for r in range(nr + 1)]


def _add_round_key(s: list, rk: bytes) -> None:
    for i in range(16):
        s[i] ^= rk[i]


_SHIFT = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11]
_INV_SHIFT = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3]


# T-tables (the classic 32-bit software AES formulation): one lookup fuses
# SubBytes + MixColumns for a whole state byte, so an encrypt round is 16
# table hits + XORs on Python ints — ~5x the naive byte-matrix loop, which
# matters because Algorithm 2.B (AES-256 R6) runs thousands of CBC blocks
# per password validation.
_T0 = [((_MUL2[s] << 24) | (s << 16) | (s << 8) | _MUL3[s]) for s in _SBOX]
_T1 = [((_MUL3[s] << 24) | (_MUL2[s] << 16) | (s << 8) | s) for s in _SBOX]
_T2 = [((s << 24) | (_MUL3[s] << 16) | (_MUL2[s] << 8) | s) for s in _SBOX]
_T3 = [((s << 24) | (s << 16) | (_MUL3[s] << 8) | _MUL2[s]) for s in _SBOX]


def _rk_words(rks: list) -> list:
    """Round keys as per-round lists of four 32-bit big-endian words."""
    return [[int.from_bytes(rk[4 * j : 4 * j + 4], "big") for j in range(4)]
            for rk in rks]


def _encrypt_block_words(w0: int, w1: int, w2: int, w3: int, rkw: list):
    """One AES block over 32-bit column words (T-table rounds)."""
    r0, r1, r2, r3 = rkw[0]
    w0 ^= r0
    w1 ^= r1
    w2 ^= r2
    w3 ^= r3
    T0, T1, T2, T3 = _T0, _T1, _T2, _T3
    for rnd in range(1, len(rkw) - 1):
        r0, r1, r2, r3 = rkw[rnd]
        e0 = (T0[(w0 >> 24) & 255] ^ T1[(w1 >> 16) & 255]
              ^ T2[(w2 >> 8) & 255] ^ T3[w3 & 255] ^ r0)
        e1 = (T0[(w1 >> 24) & 255] ^ T1[(w2 >> 16) & 255]
              ^ T2[(w3 >> 8) & 255] ^ T3[w0 & 255] ^ r1)
        e2 = (T0[(w2 >> 24) & 255] ^ T1[(w3 >> 16) & 255]
              ^ T2[(w0 >> 8) & 255] ^ T3[w1 & 255] ^ r2)
        e3 = (T0[(w3 >> 24) & 255] ^ T1[(w0 >> 16) & 255]
              ^ T2[(w1 >> 8) & 255] ^ T3[w2 & 255] ^ r3)
        w0, w1, w2, w3 = e0, e1, e2, e3
    S = _SBOX
    r0, r1, r2, r3 = rkw[-1]
    e0 = ((S[(w0 >> 24) & 255] << 24) | (S[(w1 >> 16) & 255] << 16)
          | (S[(w2 >> 8) & 255] << 8) | S[w3 & 255]) ^ r0
    e1 = ((S[(w1 >> 24) & 255] << 24) | (S[(w2 >> 16) & 255] << 16)
          | (S[(w3 >> 8) & 255] << 8) | S[w0 & 255]) ^ r1
    e2 = ((S[(w2 >> 24) & 255] << 24) | (S[(w3 >> 16) & 255] << 16)
          | (S[(w0 >> 8) & 255] << 8) | S[w1 & 255]) ^ r2
    e3 = ((S[(w3 >> 24) & 255] << 24) | (S[(w0 >> 16) & 255] << 16)
          | (S[(w1 >> 8) & 255] << 8) | S[w2 & 255]) ^ r3
    return e0, e1, e2, e3


def _encrypt_block(block: bytes, rks: list) -> bytes:
    rkw = _rk_words(rks)
    w = _encrypt_block_words(
        int.from_bytes(block[0:4], "big"), int.from_bytes(block[4:8], "big"),
        int.from_bytes(block[8:12], "big"), int.from_bytes(block[12:16], "big"),
        rkw)
    return b"".join(x.to_bytes(4, "big") for x in w)


def _decrypt_block(block: bytes, rks: list) -> bytes:
    s = list(block)
    _add_round_key(s, rks[-1])
    for rnd in range(len(rks) - 2, 0, -1):
        s = [_INV_SBOX[s[i]] for i in _INV_SHIFT]
        _add_round_key(s, rks[rnd])
        t = []
        for c in range(4):
            a0, a1, a2, a3 = s[4 * c : 4 * c + 4]
            t += [
                _MUL14[a0] ^ _MUL11[a1] ^ _MUL13[a2] ^ _MUL9[a3],
                _MUL9[a0] ^ _MUL14[a1] ^ _MUL11[a2] ^ _MUL13[a3],
                _MUL13[a0] ^ _MUL9[a1] ^ _MUL14[a2] ^ _MUL11[a3],
                _MUL11[a0] ^ _MUL13[a1] ^ _MUL9[a2] ^ _MUL14[a3],
            ]
        s = t
    s = [_INV_SBOX[s[i]] for i in _INV_SHIFT]
    _add_round_key(s, rks[0])
    return bytes(s)


def _cbc_encrypt_raw(key: bytes, iv: bytes, data: bytes) -> bytes:
    """CBC encrypt with NO padding and NO IV prepend (len(data) % 16 == 0) —
    the form Algorithms 2.B / 8 / 9 of ISO 32000-2 use.  Runs on 32-bit
    words end-to-end (no per-block bytes round-trip)."""
    rkw = _rk_words(_expand_key(key))
    n_words = len(data) // 4
    words = struct.unpack(">4I", iv) + struct.unpack(">%dI" % n_words, data)
    out = [0] * n_words
    p0, p1, p2, p3 = words[:4]
    for i in range(0, n_words, 4):
        j = 4 + i
        p0, p1, p2, p3 = _encrypt_block_words(
            p0 ^ words[j], p1 ^ words[j + 1],
            p2 ^ words[j + 2], p3 ^ words[j + 3], rkw)
        out[i] = p0
        out[i + 1] = p1
        out[i + 2] = p2
        out[i + 3] = p3
    return struct.pack(">%dI" % n_words, *out)


def _cbc_decrypt_raw(key: bytes, iv: bytes, data: bytes) -> bytes:
    rks = _expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        blk = data[i : i + 16]
        out += bytes(a ^ b for a, b in zip(_decrypt_block(blk, rks), prev))
        prev = blk
    return bytes(out)


def aes128_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """PKCS#5-padded CBC encrypt; returns iv || ciphertext (the PDF layout)."""
    pad = 16 - len(data) % 16
    return iv + _cbc_encrypt_raw(key, iv, data + bytes([pad]) * pad)


def aes128_cbc_decrypt(key: bytes, data: bytes) -> bytes:
    """data = iv || ciphertext -> plaintext with PKCS#5 padding stripped."""
    if len(data) < 32 or len(data) % 16:
        raise ValueError("AES-CBC payload must be iv + whole blocks")
    rks = _expand_key(key)
    iv, ct = data[:16], data[16:]
    out = bytearray()
    prev = iv
    for i in range(0, len(ct), 16):
        blk = ct[i : i + 16]
        out += bytes(a ^ b for a, b in zip(_decrypt_block(blk, rks), prev))
        prev = blk
    pad = out[-1]
    if not 1 <= pad <= 16:
        raise ValueError("bad AES padding")
    return bytes(out[:-pad])


# ---------------------------------------------------------------------------
# AES-256 revision 6 (ISO 32000-2 §7.6.4 — the Acrobat X+ default)
# ---------------------------------------------------------------------------


def hash_2b(pwd: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """Algorithm 2.B: the hardened SHA-2 hash — iterate (repeat x64 →
    AES-128-CBC with the running hash as key/iv → pick SHA-256/384/512 by
    the ciphertext's first-16-byte sum mod 3) until round >= 64 and the
    last ciphertext byte <= round - 32."""
    k = hashlib.sha256(pwd + salt + udata).digest()
    i = 0
    while True:
        k1 = (pwd + k + udata) * 64
        e = _cbc_encrypt_raw(k[:16], k[16:32], k1)
        mod = sum(e[:16]) % 3
        k = (hashlib.sha256, hashlib.sha384, hashlib.sha512)[mod](e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            return k[:32]


# ---------------------------------------------------------------------------
# Standard security handler (Algorithms 1-5, ISO 32000-1 §7.6.3)
# ---------------------------------------------------------------------------


def _padded(pwd: bytes) -> bytes:
    return (pwd + PAD)[:32]


def file_key(pwd: bytes, o_value: bytes, p: int, file_id: bytes,
             r: int, key_bytes: int, encrypt_metadata: bool = True) -> bytes:
    """Algorithm 2: the file encryption key from the (user) password.  R4+
    hashes four 0xff bytes more when the dict says /EncryptMetadata false."""
    h = hashlib.md5(_padded(pwd))
    h.update(o_value[:32])
    h.update(struct.pack("<i", p))
    h.update(file_id)
    if r >= 4 and not encrypt_metadata:
        h.update(b"\xff\xff\xff\xff")
    digest = h.digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest[:key_bytes]).digest()
    return digest[:key_bytes]


def compute_o(owner_pwd: bytes, user_pwd: bytes, r: int, key_bytes: int) -> bytes:
    """Algorithm 3: the /O value."""
    digest = hashlib.md5(_padded(owner_pwd or user_pwd)).digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest).digest()
    rc4_key = digest[:key_bytes]
    e = rc4(rc4_key, _padded(user_pwd))
    if r >= 3:
        for i in range(1, 20):
            e = rc4(bytes(b ^ i for b in rc4_key), e)
    return e


def compute_u(key: bytes, file_id: bytes, r: int) -> bytes:
    """Algorithm 4 (R2) / Algorithm 5 (R3+): the /U value."""
    if r == 2:
        return rc4(key, PAD)
    digest = hashlib.md5(PAD + file_id).digest()
    e = rc4(key, digest)
    for i in range(1, 20):
        e = rc4(bytes(b ^ i for b in key), e)
    return e + b"\x00" * 16


def object_key(key: bytes, objnum: int, gen: int, aes: bool) -> bytes:
    """Algorithm 1: the per-object key."""
    h = hashlib.md5(key + struct.pack("<I", objnum)[:3] + struct.pack("<H", gen))
    if aes:
        h.update(b"sAlT")
    return h.digest()[: min(len(key) + 5, 16)]


class StandardSecurityHandler:
    """Decrypt/encrypt strings and streams for V1/V2 (RC4) and V4 /AESV2.

    ``mode`` ∈ {"rc4-40", "rc4-128", "aes-128"} for the writer; the reader
    builds the handler from a parsed /Encrypt dict via ``from_encrypt_dict``.
    Only the EMPTY user password is supported — the reference's PdfPig
    surface for protected-but-readable files; a real password prompt is out
    of scope and ``from_encrypt_dict`` raises when /U does not verify.
    """

    MODES = {
        "rc4-40": (1, 2, 5, False),
        "rc4-128": (2, 3, 16, False),
        "aes-128": (4, 4, 16, True),
        "aes-256": (5, 6, 32, True),
    }

    def __init__(self, v: int, r: int, key_bytes: int, aes: bool,
                 key: bytes, o_value: bytes, u_value: bytes, p: int,
                 file_id: bytes):
        self.v, self.r, self.key_bytes, self.aes = v, r, key_bytes, aes
        self.key, self.o, self.u, self.p, self.file_id = (
            key, o_value, u_value, p, file_id)

    # -- construction ------------------------------------------------------

    @classmethod
    def for_writing(cls, mode: str, file_id: bytes, p: int = -44,
                    owner_pwd: bytes = b"owner") -> "StandardSecurityHandler":
        v, r, kb, aes = cls.MODES[mode]
        if v == 5:
            # ISO 32000-2 Algorithms 8/9/10 with an empty user password;
            # salts + file key derived from file_id so goldens stay
            # byte-stable (a random key would break writer determinism)
            fk = hashlib.sha256(b"filekey" + file_id).digest()
            vs = hashlib.md5(b"uvs" + file_id).digest()[:8]
            ks = hashlib.md5(b"uks" + file_id).digest()[:8]
            u = hash_2b(b"", vs) + vs + ks
            ue = _cbc_encrypt_raw(hash_2b(b"", ks), b"\x00" * 16, fk)
            ovs = hashlib.md5(b"ovs" + file_id).digest()[:8]
            oks = hashlib.md5(b"oks" + file_id).digest()[:8]
            o = hash_2b(owner_pwd, ovs, u) + ovs + oks
            oe = _cbc_encrypt_raw(hash_2b(owner_pwd, oks, u), b"\x00" * 16, fk)
            h = cls(v, r, kb, aes, fk, o, u, p, file_id)
            h.ue, h.oe = ue, oe
            perms_blk = (struct.pack("<i", p) + b"\xff\xff\xff\xff" + b"Tadb"
                         + hashlib.md5(b"prnd" + file_id).digest()[:4])
            h.perms = _encrypt_block(perms_blk, _expand_key(fk))
            return h
        o = compute_o(owner_pwd, b"", r, kb)
        key = file_key(b"", o, p, file_id, r, kb)
        u = compute_u(key, file_id, r)
        return cls(v, r, kb, aes, key, o, u, p, file_id)

    @classmethod
    def from_encrypt_dict(cls, body: bytes, file_id: bytes) -> "StandardSecurityHandler":
        """Parse a /Filter /Standard encrypt dictionary body."""
        fm = re.search(rb"/Filter\s*/(\w+)", body)
        if not fm or fm.group(1) != b"Standard":
            raise NotImplementedError(
                "only the /Standard security handler is supported")
        v = int(re.search(rb"/V\s+(\d+)", body).group(1))
        r = int(re.search(rb"/R\s+(\d+)", body).group(1))
        p = int(re.search(rb"/P\s+(-?\d+)", body).group(1))
        length = re.search(rb"/Length\s+(\d+)", body)
        kb = (int(length.group(1)) // 8) if length else 5
        aes = False
        if v == 5:
            # AES-256 R6 (ISO 32000-2 §7.6.4): validate the empty user
            # password against U's hash+validation salt (Algorithm 2.A),
            # then unwrap the file key from UE under the key-salt hash
            if not re.search(rb"/CFM\s*/AESV3\b", body):
                raise NotImplementedError("V5 crypt filter other than AESV3")
            u = _grab_string(body, b"/U")[:48]
            ue = _grab_string(body, b"/UE")[:32]
            if hash_2b(b"", u[32:40]) != u[:32]:
                raise NotImplementedError(
                    "encrypted PDF requires a non-empty user password")
            fk = _cbc_decrypt_raw(hash_2b(b"", u[40:48]), b"\x00" * 16, ue)
            o = _grab_string(body, b"/O")
            h = cls(5, r, 32, True, fk, o, u, p, file_id)
            h.ue = ue
            return h
        if v == 4:
            kb = 16
            if re.search(rb"/CFM\s*/AESV2\b", body):
                aes = True
            elif not re.search(rb"/CFM\s*/V2\b", body):
                raise NotImplementedError("V4 crypt filter other than AESV2/V2")
            if re.search(rb"/(StmF|StrF)\s*/Identity\b", body):
                raise NotImplementedError("per-stream /Identity crypt filters")
        elif v not in (1, 2):
            raise NotImplementedError(f"encryption /V {v} (V5/AES-256 not needed"
                                      " for the PdfPig parity surface)")
        o = _grab_string(body, b"/O")
        u = _grab_string(body, b"/U")
        plain_meta = re.search(rb"/EncryptMetadata\s+false\b", body)
        key = file_key(b"", o, p, file_id, r, kb, encrypt_metadata=not plain_meta)
        # verify the empty user password: R2 compares all 32 bytes, R3+ the
        # first 16 (ISO 32000 Algorithm 6)
        expect = compute_u(key, file_id, r)
        n = 32 if r == 2 else 16
        if expect[:n] != u[:n]:
            raise NotImplementedError(
                "encrypted PDF requires a non-empty user password")
        return cls(v, r, kb, aes, key, o, u, p, file_id)

    # -- data transforms ---------------------------------------------------

    def decrypt(self, objnum: int, gen: int, data: bytes) -> bytes:
        if self.v == 5:  # AES-256: the FILE key directly, no Algorithm 1
            return aes128_cbc_decrypt(self.key, data)
        k = object_key(self.key, objnum, gen, self.aes)
        if self.aes:
            return aes128_cbc_decrypt(k, data)
        return rc4(k, data)

    def encrypt(self, objnum: int, gen: int, data: bytes) -> bytes:
        # deterministic IV (writer determinism contract): derived from the
        # object identity — unique per object, which is all CBC needs here
        iv = hashlib.md5(b"iv" + struct.pack("<IH", objnum, gen)).digest()
        if self.v == 5:
            return aes128_cbc_encrypt(self.key, iv, data)
        k = object_key(self.key, objnum, gen, self.aes)
        if self.aes:
            return aes128_cbc_encrypt(k, iv, data)
        return rc4(k, data)

    def encrypt_dict_body(self) -> bytes:
        """The /Encrypt dictionary body the writer emits (hex-string O/U)."""
        o_hex = self.o.hex().encode("ascii")
        u_hex = self.u.hex().encode("ascii")
        if self.v == 5:
            return (
                b"<< /Filter /Standard /V 5 /R 6 /Length 256"
                b" /CF << /StdCF << /CFM /AESV3 /Length 32 >> >>"
                b" /StmF /StdCF /StrF /StdCF"
                b" /O <" + o_hex + b"> /OE <" + self.oe.hex().encode("ascii")
                + b"> /U <" + u_hex + b"> /UE <" + self.ue.hex().encode("ascii")
                + b"> /Perms <" + self.perms.hex().encode("ascii")
                + b"> /P %d >>" % self.p
            )
        if self.v == 4:
            return (
                b"<< /Filter /Standard /V 4 /R 4 /Length 128"
                b" /CF << /StdCF << /CFM /AESV2 /Length 16 >> >>"
                b" /StmF /StdCF /StrF /StdCF"
                b" /O <" + o_hex + b"> /U <" + u_hex + b"> /P %d >>" % self.p
            )
        if self.v == 2:
            return (
                b"<< /Filter /Standard /V 2 /R 3 /Length 128 /O <" + o_hex
                + b"> /U <" + u_hex + b"> /P %d >>" % self.p
            )
        return (
            b"<< /Filter /Standard /V 1 /R 2 /O <" + o_hex
            + b"> /U <" + u_hex + b"> /P %d >>" % self.p
        )


def _grab_string(body: bytes, key: bytes):
    """Read the literal or hex string value of ``key`` in a dict body as raw
    BYTES (the pdf module's string readers decode to str; /O and /U are
    binary)."""
    from .pdf import _read_string_bytes

    m = re.search(re.escape(key) + rb"\s*([(<])", body)
    if not m:
        raise ValueError(f"missing {key!r} in encrypt dict")
    return _read_string_bytes(body, m.end() - 1)
