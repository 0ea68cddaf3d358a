"""Deterministic random streams, one per (master seed, trial index).

Child seeds are derived by hashing, so trial streams are independent of
execution order and identical across platforms and thread counts.
"""

from __future__ import annotations

import hashlib
import random

from .field import FieldDescriptor, PadicElement


def stream(master_seed: int, *indices) -> random.Random:
    key = ":".join(str(x) for x in (master_seed, *indices))
    digest = hashlib.sha256(key.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_unit(rng: random.Random, field: FieldDescriptor, prec: int) -> PadicElement:
    """Uniform unit: leading residue digit nonzero, the rest uniform."""
    digits = []
    for t in range(prec):
        if field.f == 1:
            d = rng.randrange(1, field.p) if t == 0 else rng.randrange(field.p)
        else:
            while True:
                d = tuple(rng.randrange(field.p) for _ in range(field.f))
                if t > 0 or any(d):
                    break
        digits.append(d)
    return PadicElement.from_pi_digits(field, 0, digits, prec)


def random_element(rng: random.Random, field: FieldDescriptor, prec: int,
                   min_shift: int = 0, max_shift: int = 0) -> PadicElement:
    """Uniform digits at a uniform shift in [min_shift, max_shift].

    Every shift must leave a digit below prec, so max_shift >= prec raises
    ValueError before anything is drawn from rng.
    """
    if max_shift >= prec:
        raise ValueError(f"max_shift {max_shift} must be below prec {prec}")
    shift = rng.randint(min_shift, max_shift)
    unit = random_unit(rng, field, prec - shift)
    return PadicElement(field, shift, unit.coeffs, prec)
