"""Compare vcgen's numpy erf with scipy.special.erf on all 2**32 float32 bit
patterns, block by block, and print the number of mismatches and the run time.
NaN matches NaN (payloads are not compared); everything else must agree bit
for bit. A script, not a test module: it takes minutes, so pytest does not
collect it.

    PYTHONPATH=src python tests/erf_exhaustive.py [--block-bits 22]

Exits 0 when there is no mismatch, else 1.
"""

from __future__ import annotations

import argparse
import time

import numpy as np
from scipy.special import erf as scipy_erf

from vcgen.tensor import _erf


def mismatches(start: int, count: int) -> np.ndarray:
    """Bit patterns in [start, start + count) on which the two erfs differ."""
    bits = np.arange(start, start + count, dtype=np.uint32)
    x = bits.view(np.float32)
    with np.errstate(invalid="ignore"):  # casting a signaling NaN flags invalid
        ours = _erf(x)
    theirs = scipy_erf(x)
    same = ours.view(np.uint32) == theirs.view(np.uint32)
    same |= np.isnan(ours) & np.isnan(theirs)
    return bits[~same]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--block-bits", type=int, default=22, help="log2 of the bit patterns per block")
    args = parser.parse_args()
    block = 1 << args.block_bits
    started = time.perf_counter()
    bad: list[np.ndarray] = []
    for start in range(0, 1 << 32, block):
        bad.append(mismatches(start, block))
    bad_bits = np.concatenate(bad)
    for b in bad_bits[:10]:
        x = np.array([b], dtype=np.uint32).view(np.float32)
        print(f"mismatch at 0x{b:08x} ({x[0]!r}): {_erf(x)[0]!r} vs scipy {scipy_erf(x)[0]!r}")
    print(f"{bad_bits.size} mismatches over 2**32 float32 inputs in {time.perf_counter() - started:.1f} s")
    return 0 if bad_bits.size == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
