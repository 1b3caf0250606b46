"""Canonical content-derived fingerprints for cross-process cache keys.

The in-memory caches key by interned objects -- pointer identity, valid
only within one process.  The ``implies``, ``contain`` and ``glav`` verdict
spaces of :mod:`repro.cache.store` need keys that are identical across
processes and across Python hash seeds, so fingerprints here are built
purely from *content*: every value and atom is rendered into an injective
byte string and hashed with SHA-256.  ``hash()`` is never consulted.  Each
core engine also compares the canonical f-blocks of one instance by these
digests.

Injectivity uses the length-prefixed encoding idiom of
``repro.export.sql`` / ``engine.sql_backend``: each component is rendered
as ``<len>:<payload>`` behind a one-byte kind tag (``c`` constant, ``n``
null, ``v`` variable, ``f`` functional term, ``A`` atom), so no
concatenation of components can collide with a different decomposition --
adversarial names containing commas, parentheses, or digits cannot forge a
boundary.

Per-atom encodings are memoized in a :class:`~weakref.WeakKeyDictionary`
(atoms are interned, so one encoding serves every occurrence and dies with
the atom).
"""

from __future__ import annotations

import hashlib
from typing import Iterable
from weakref import WeakKeyDictionary

from repro.logic.atoms import Atom
from repro.logic.terms import FuncTerm
from repro.logic.values import Constant, Null, Variable

_ATOM_ENCODINGS: "WeakKeyDictionary[Atom, bytes]" = WeakKeyDictionary()


def _prefixed(payload: bytes) -> bytes:
    return b"%d:%s" % (len(payload), payload)


def encode_value(value: object) -> bytes:
    """Render one value/term into an injective, hash-seed-independent byte string.

    Leaf names go through ``repr`` (total and deterministic for the str /
    int / tuple names the library constructs) and are length-prefixed, so
    distinct names -- including names that embed other encodings -- yield
    distinct byte strings.
    """
    if isinstance(value, Constant):
        return b"c" + _prefixed(repr(value.name).encode())
    if isinstance(value, Null):
        return b"n" + _prefixed(repr(value.name).encode())
    if isinstance(value, Variable):
        return b"v" + _prefixed(repr(value.name).encode())
    if isinstance(value, FuncTerm):
        pieces = [b"f", _prefixed(value.function.encode())]
        for arg in value.args:
            pieces.append(_prefixed(encode_value(arg)))
        return b"".join(pieces)
    raise TypeError(f"cannot fingerprint value {value!r}")


def encode_atom(atom: Atom) -> bytes:
    """Render one atom injectively; memoized per interned atom."""
    cached = _ATOM_ENCODINGS.get(atom)
    if cached is None:
        pieces = [b"A", _prefixed(atom.relation.encode())]
        for arg in atom.args:
            pieces.append(_prefixed(encode_value(arg)))
        cached = b"".join(pieces)
        _ATOM_ENCODINGS[atom] = cached
    return cached


def encode_canonical_null(index: int) -> bytes:
    """The encoding of the canonical core-block null ``Null(("#", index))``.

    Lets the columnar core engine encode a canonical row from integer id
    tuples without constructing the interned ``Null`` object: the bytes are
    exactly ``encode_value(Null(("#", index)))``.
    """
    return b"n" + _prefixed(repr(("#", index)).encode())


def encode_atom_parts(relation: str, arg_encodings: Iterable[bytes]) -> bytes:
    """Assemble an atom encoding from pre-encoded argument byte strings.

    ``encode_atom_parts(a.relation, map(encode_value, a.args))`` equals
    ``encode_atom(a)`` byte for byte; the columnar core engine uses it to
    encode canonical rows it holds as value-id tuples, without building
    their atoms.
    """
    pieces = [b"A", _prefixed(relation.encode())]
    for encoding in arg_encodings:
        pieces.append(_prefixed(encoding))
    return b"".join(pieces)


def _digest(parts: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def fingerprint_facts(facts: Iterable[Atom]) -> str:
    """Fingerprint an *unordered* fact set.

    Encodings are sorted before hashing, so any iteration order of the same
    set -- including a ``frozenset`` whose order varies with the hash seed --
    produces the same fingerprint.
    """
    return _digest(sorted(_prefixed(encode_atom(fact)) for fact in facts))


def fingerprint_fact_sequence(facts: Iterable[Atom]) -> str:
    """Fingerprint an *ordered* fact tuple (canonical core blocks)."""
    return _digest(_prefixed(encode_atom(fact)) for fact in facts)


def fingerprint_encoded_sequence(encodings: Iterable[bytes]) -> str:
    """Fingerprint an ordered sequence of pre-encoded atoms.

    Equals ``fingerprint_fact_sequence`` of the corresponding atoms when each
    element was built with :func:`encode_atom_parts`.  The columnar core
    engine hashes its canonical blocks with it; their row order is that
    engine's own, so its fingerprints differ from the tuple engine's.
    """
    return _digest(_prefixed(encoding) for encoding in encodings)


def fingerprint_texts(texts: Iterable[str]) -> str:
    """Fingerprint an ordered sequence of strings (Sigma reprs, key components)."""
    return _digest(_prefixed(text.encode()) for text in texts)


def combine_fingerprints(*fingerprints: str) -> str:
    """Combine component fingerprints into one key, order-sensitively."""
    return _digest(_prefixed(fp.encode()) for fp in fingerprints)


__all__ = [
    "encode_value",
    "encode_atom",
    "encode_atom_parts",
    "encode_canonical_null",
    "fingerprint_facts",
    "fingerprint_fact_sequence",
    "fingerprint_encoded_sequence",
    "fingerprint_texts",
    "combine_fingerprints",
]
