#!/usr/bin/env python3
"""Generate the benchmark S-box permutation files, with validation.

Two classic 8-bit substitution boxes are produced:

* Skipjack's F table.  Before writing, the full 80-bit-key block cipher is
  implemented around the table and checked against the published test
  vector (key 00 99 88 77 66 55 44 33 22 11 encrypting 33221100ddccbbaa
  to 2587cae27a12d300); one wrong table byte would wreck the ciphertext.
* KHAZAD's S box, built from its two 4-bit mini-boxes P and Q by the
  documented three-layer construction with middle-bit swaps, checked
  against the first sixteen bytes of the published table.

Usage: PYTHONPATH=src python3 scripts/make_benchmarks.py [output_dir]
"""

from __future__ import annotations

import os
import sys

from blocksynth import Permutation, format_permutation

# --- Skipjack -----------------------------------------------------------

F_TABLE_HEX = """
a3 d7 09 83 f8 48 f6 f4 b3 21 15 78 99 b1 af f9
e7 2d 4d 8a ce 4c ca 2e 52 95 d9 1e 4e 38 44 28
0a df 02 a0 17 f1 60 68 12 b7 7a c3 e9 fa 3d 53
96 84 6b ba f2 63 9a 19 7c ae e5 f5 f7 16 6a a2
39 b6 7b 0f c1 93 81 1b ee b4 1a ea d0 91 2f b8
55 b9 da 85 3f 41 bf e0 5a 58 80 5f 66 0b d8 90
35 d5 c0 a7 33 06 65 69 45 00 94 56 6d 98 9b 76
97 fc b2 c2 b0 fe db 20 e1 eb d6 e4 dd 47 4a 1d
42 ed 9e 6e 49 3c cd 43 27 d2 07 d4 de c7 67 18
89 cb 30 1f 8d c6 8f aa c8 74 dc c9 5d 5c 31 a4
70 88 61 2c 9f 0d 2b 87 50 82 54 64 26 7d 03 40
34 4b 1c 73 d1 c4 fd 3b cc fb 7f ab e6 3e 5b a5
ad 04 23 9c 14 51 22 f0 29 79 71 7e ff 8c 0e e2
0c ef bc 72 75 6f 37 a1 ec d3 8e 62 8b 86 10 e8
08 77 11 be 92 4f 24 c5 32 36 9d cf f3 a6 bb ac
5e 6c a9 13 57 25 b5 e3 bd a8 3a 01 05 59 2a 46
"""

F = tuple(int(tok, 16) for tok in F_TABLE_HEX.split())
assert len(F) == 256


def _g(w: int, cv: bytes, k: int) -> int:
    """Skipjack's G permutation on a 16-bit word, for 1-based round k."""
    g1, g2 = w >> 8, w & 0xFF
    base = 4 * (k - 1)
    g1 ^= F[g2 ^ cv[base % 10]]
    g2 ^= F[g1 ^ cv[(base + 1) % 10]]
    g1 ^= F[g2 ^ cv[(base + 2) % 10]]
    g2 ^= F[g1 ^ cv[(base + 3) % 10]]
    return (g1 << 8) | g2


def skipjack_encrypt(key: bytes, block: bytes) -> bytes:
    assert len(key) == 10 and len(block) == 8
    w = [int.from_bytes(block[i : i + 2], "big") for i in (0, 2, 4, 6)]
    k = 1
    for _ in range(2):  # A*8, B*8, A*8, B*8
        for _ in range(8):  # Rule A
            g = _g(w[0], key, k)
            w = [g ^ w[3] ^ k, g, w[1], w[2]]
            k += 1
        for _ in range(8):  # Rule B
            w = [w[3], _g(w[0], key, k), w[0] ^ w[1] ^ k, w[2]]
            k += 1
    return b"".join(v.to_bytes(2, "big") for v in w)


def validate_skipjack() -> None:
    key = bytes.fromhex("00998877665544332211")
    plaintext = bytes.fromhex("33221100ddccbbaa")
    want = bytes.fromhex("2587cae27a12d300")
    got = skipjack_encrypt(key, plaintext)
    if got != want:
        raise SystemExit(
            f"Skipjack self-test failed: got {got.hex()}, want {want.hex()}"
        )
    if sorted(F) != list(range(256)):
        raise SystemExit("Skipjack F table is not a bijection")


# --- KHAZAD --------------------------------------------------------------

KHAZAD_P = (0x3, 0xF, 0xE, 0x0, 0x5, 0x4, 0xB, 0xC, 0xD, 0xA, 0x9, 0x6, 0x7, 0x8, 0x2, 0x1)
KHAZAD_Q = (0x9, 0xE, 0x5, 0x6, 0xA, 0x2, 0x3, 0xC, 0xF, 0x0, 0x4, 0xD, 0x7, 0xB, 0x1, 0x8)

KHAZAD_ROW0 = tuple(
    int(tok, 16)
    for tok in "BA 54 2F 74 53 D3 D2 4D 50 AC 8D BF 70 52 9A 4C".split()
)


def khazad_sbox() -> tuple[int, ...]:
    """Three mini-box layers with the P/Q roles alternating per layer.

    Layers 1 and 3 apply P to the high nibble and Q to the low one, layer 2
    the other way around; between layers the middle two bit-pairs swap
    (each nibble keeps its outer pair and hands its inner pair across).
    """
    out = []
    for byte in range(256):
        hi, lo = KHAZAD_P[byte >> 4], KHAZAD_Q[byte & 0xF]
        hi, lo = (hi & 0xC) | (lo >> 2), ((hi & 0x3) << 2) | (lo & 0x3)
        hi, lo = KHAZAD_Q[hi], KHAZAD_P[lo]
        hi, lo = (hi & 0xC) | (lo >> 2), ((hi & 0x3) << 2) | (lo & 0x3)
        out.append((KHAZAD_P[hi] << 4) | KHAZAD_Q[lo])
    return tuple(out)


def validate_khazad(sbox: tuple[int, ...]) -> None:
    if sbox[:16] != KHAZAD_ROW0:
        raise SystemExit(
            "KHAZAD self-test failed on the first table row: "
            + " ".join(f"{v:02X}" for v in sbox[:16])
        )
    if sorted(sbox) != list(range(256)):
        raise SystemExit("KHAZAD S box is not a bijection")


# --- Output --------------------------------------------------------------


def format_perm_file(title: str, values: tuple[int, ...]) -> str:
    return f"# {title}\n" + format_permutation(Permutation(8, values))


def main() -> int:
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "benchmarks"
    validate_skipjack()
    sbox = khazad_sbox()
    validate_khazad(sbox)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "skipjack.perm"), "w", encoding="utf-8") as fh:
        fh.write(format_perm_file("Skipjack F table (8-bit S box)", F))
    with open(os.path.join(out_dir, "khazad.perm"), "w", encoding="utf-8") as fh:
        fh.write(format_perm_file("KHAZAD S box (8-bit)", sbox))
    print(f"wrote {out_dir}/skipjack.perm and {out_dir}/khazad.perm (validated)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
