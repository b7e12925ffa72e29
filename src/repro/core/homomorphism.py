"""Homomorphism search — the stable public API.

Homomorphisms are the single semantic primitive of the paper: CQ evaluation,
CQ containment (Chandra–Merlin), chase applicability, and the universality of
the chase are all phrased through them.  A homomorphism from a set of atoms
``A`` into an instance ``I`` maps variables and nulls of ``A`` to terms of
``I`` and is the identity on constants, such that the image of every atom of
``A`` is an atom of ``I``.

The search itself lives in :mod:`repro.kernel` (compiled per-body plans,
positional candidate indexes, instrumentation); this module is the thin
compatibility shim that preserves the original call signatures.  Answer
sets and the deterministic enumeration order are identical to the
pre-kernel implementation.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Sequence

from ..kernel.search import (
    find_homomorphism as _kernel_find,
    homomorphisms as _kernel_homomorphisms,
)
from .atoms import Atom
from .instance import Instance
from .terms import Term


def homomorphisms(
    source: Sequence[Atom],
    target: Instance,
    fixed: Optional[Mapping[Term, Term]] = None,
) -> Iterator[Dict[Term, Term]]:
    """Yield every homomorphism from *source* into *target*.

    *fixed* pre-binds some source terms (used to check a specific answer
    tuple, or to hold a trigger fixed during the chase).  Yielded dicts map
    every mappable term of *source*; constants are implicitly identity.
    """
    return _kernel_homomorphisms(tuple(source), target, fixed)


def find_homomorphism(
    source: Sequence[Atom],
    target: Instance,
    fixed: Optional[Mapping[Term, Term]] = None,
) -> Optional[Dict[Term, Term]]:
    """The first homomorphism from *source* into *target*, or None."""
    return _kernel_find(tuple(source), target, fixed)


def has_homomorphism(
    source: Sequence[Atom],
    target: Instance,
    fixed: Optional[Mapping[Term, Term]] = None,
) -> bool:
    """True iff some homomorphism from *source* into *target* exists."""
    return find_homomorphism(source, target, fixed) is not None


def instance_homomorphism(
    source: Instance, target: Instance
) -> Optional[Dict[Term, Term]]:
    """A homomorphism between instances (nulls mapped, constants fixed)."""
    return find_homomorphism(tuple(source), target)


def is_hom_equivalent(left: Instance, right: Instance) -> bool:
    """True iff the two instances are homomorphically equivalent."""
    return (
        instance_homomorphism(left, right) is not None
        and instance_homomorphism(right, left) is not None
    )
