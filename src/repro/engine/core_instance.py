"""Core computation by iterative f-block retraction.

The core of an instance J is the smallest subinstance of J homomorphically
equivalent to J; it is unique up to isomorphism (Section 2, citing Hell &
Nesetril).  The algorithm repeatedly looks for a null that can be
*eliminated*: null ``x`` is eliminable when the f-block of ``x`` has a
homomorphism into the subinstance of J consisting of the facts that do not
contain ``x``.  Applying such a homomorphism (identity outside the block)
yields a proper retract of J without ``x``; when no null is eliminable, J is
a core.

Correctness of the stopping condition: if J is not a core, it has a proper
idempotent retract ``r``.  ``r`` moves some null ``x`` (otherwise it is the
identity), and idempotence puts ``x`` outside the image of ``r``, so the
restriction of ``r`` to the f-block of ``x`` is exactly an eliminating
homomorphism.  Conversely each elimination strictly decreases the number of
nulls, so the loop terminates after at most ``|nulls(J)|`` rounds.

Note that merely searching for a homomorphism that maps ``x`` to another
value would be wrong: such a homomorphism can be an automorphism (e.g.
rotating the nulls of a symmetric cycle), whose application does not shrink
the instance.

Engine structure (the seed loop -- restricted instance per candidate null,
unindexed search, restart per elimination -- is preserved as
:func:`repro.engine.naive.core_naive` for differential testing):

- **One mutable target.**  The instance lives in an
  :class:`~repro.engine.builder.InstanceBuilder`; an elimination *discards*
  the block facts that left the image instead of rebuilding an immutable
  instance, and "J minus the facts containing x" is expressed as a
  ``forbidden`` fact set (from the per-value reverse index) passed to the
  homomorphism kernel, never materialized.
- **Single pass over a block worklist.**  Every f-block with a null goes
  straight onto one global worklist and is searched against the whole
  instance.  A separate block-local fold would add nothing: a homomorphism
  from block B into ``B minus facts(x)`` is in particular one into
  ``J minus facts(x)``, so every local fold is a global elimination, and
  searching B locally first only searches it twice.  An elimination only
  removes facts of the processed block (every image fact already exists in
  J), so other blocks are unaffected; the surviving facts are split into
  connected components and re-enqueued.  A block with no eliminable null is
  *rigid* and never revisited: eliminating homomorphisms only lose candidate
  facts as J shrinks, so rigidity is monotone under eliminations.
- **One failed retraction proves a whole orbit rigid.**  After the first
  failed attempt on a block with untried nulls left, the block's nulls are
  grouped into orbits of automorphisms found by colour refinement plus
  individualization-refinement and then checked fact by fact
  (:func:`_null_orbits`); nulls whose orbit already holds a failed null
  are skipped (``core.orbit_skips``).  Block nulls occur only in the block,
  so an automorphism σ of the block extends by the identity to one of J,
  and if h eliminates x then σ∘h∘σ⁻¹ eliminates σ(x).  Skipped nulls would
  have failed, so the core is the same fact for fact; a rigid odd cycle of
  n nulls (Ex 4.8) costs one kernel call instead of n.
- **Isomorphic duplicate blocks drop wholesale.**  If B2 is isomorphic to a
  disjoint block B1 of the same instance, the isomorphism maps B2 into
  ``J minus facts(x)`` for every null x of B2 (distinct blocks share no
  nulls), so all of B2 is eliminated by one retraction.  Duplicates are
  detected by equal content fingerprints of a *canonical labeling* of each
  block (nulls renamed to ``Null(("#", i))`` along degree-profile groups);
  overly symmetric blocks (too many tie-break permutations) are never
  treated as duplicates and simply stay on the worklist.  The id-space
  engine first hashes a cheap invariant of each block (its rows with every
  null masked, sorted) and fingerprints only the blocks whose invariant
  hash another block shares: isomorphic blocks have equal invariants, so
  the same blocks fold, and a block no other block could match never pays
  for a canonical labeling.

**Backends** (``core(instance, backend=...)``): besides the tuple engine
above, :class:`_ColumnarCore` runs the same worklist in *id-space* over a
:class:`~repro.engine.columnar.ColumnarInstance` -- f-blocks are connected
components of a union-find over integer value ids, canonical labelings
permute null *ids* and compare rows as ``(relation, ids)`` integer keys
(:meth:`_ColumnarCore.block_fingerprint`), eliminating
homomorphisms go through :func:`~repro.engine.hom_kernel.solve_encoded`
(the value-id seeder of the one homomorphism kernel, whose Atom seeder
:func:`~repro.engine.hom_kernel.block_homomorphism` serves the tuple
engine) with per-group forbidden row sets, and eliminations are
tombstone row discards.  All engines record the same ``core.*`` counters.
The winning key list is hashed through
:func:`~repro.cache.fingerprint.encode_atom_parts` /
:func:`~repro.cache.fingerprint.fingerprint_encoded_sequence`.  It is a
complete invariant within one store, like the tuple engine's repr-ordered
canonical form, so both engines fold the same blocks; the two fingerprints
are not comparable with each other, and nothing compares them.  ``backend="sql"``
pushes each candidate elimination down to one SELECT join
(:func:`repro.engine.sql_backend.sql_core`); ``backend="auto"`` runs the
id-space engine at every size (:func:`repro.engine.dispatch.
choose_core_backend`), while the default stays the tuple engine, the
reference the differential tests compare against.  All backends
return the same core up to isomorphism (exactly: same fact count, same
constants, isomorphic null structure); the retraction each engine picks for
a symmetric block may differ, which is why cross-engine agreement is stated
up to isomorphism.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Callable, Iterable, Sequence

from repro import perf
from repro.cache.fingerprint import (
    encode_atom_parts,
    encode_canonical_null,
    encode_value,
    fingerprint_encoded_sequence,
    fingerprint_fact_sequence,
)
from repro.engine.builder import InstanceBuilder
from repro.engine.columnar import ColumnarInstance, _RelGroup
from repro.engine.gaifman import fact_blocks
from repro.engine.hom_kernel import (
    _CONST as _ID_CONST,
    _VAR as _ID_VAR,
    EncodedFact,
    block_homomorphism,
    solve_encoded,
)
from repro.logic.atoms import Atom
from repro.logic.instances import Instance
from repro.logic.values import Null, is_null

#: One stored fact of a columnar store: (fact table, row index).
_Row = tuple[_RelGroup, int]

#: Maximum number of tie-break permutations tried when canonically labeling
#: the nulls of a block; more symmetric blocks skip iso-duplicate detection.
_CANON_PERMUTATION_LIMIT = 120

#: Maximum number of search-tree leaves (discrete colourings checked, plus
#: branches whose refinements diverge) explored while looking for one
#: automorphism of a block; a search that reaches it finds nothing.
_ORBIT_LEAF_LIMIT = 64


def _has_nulls(facts: Iterable[Atom]) -> bool:
    return any(is_null(arg) for fact in facts for arg in fact.args)


def _null_blocks(instance: Instance) -> list[list[Atom]]:
    """The f-blocks of *instance* that contain a null, each repr-sorted.

    Ground facts are singleton blocks that no retraction moves, so they are
    left out.  Shared by every engine that works on :class:`Instance` blocks
    (the tuple worklist, :func:`is_core`, and the SQL core).
    """
    blocks = []
    for block in fact_blocks(instance):
        block_facts = sorted(block, key=repr)
        if _has_nulls(block_facts):
            blocks.append(block_facts)
    return blocks


def _block_nulls(facts: Iterable[Atom]) -> list:
    """The nulls of a block, sorted by repr for deterministic elimination order."""
    return sorted({null for fact in facts for null in fact.nulls()}, key=repr)


def _null_components(facts: Sequence[Atom]) -> list[list[Atom]]:
    """Split facts into connected components linked by shared (top-level) nulls."""
    anchor_of: dict = {}
    parent = list(range(len(facts)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for index, fact in enumerate(facts):
        for null in fact.nulls():
            anchor = anchor_of.setdefault(null, index)
            if anchor != index:
                root_a, root_b = find(anchor), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    groups: dict[int, list[Atom]] = {}
    for index, fact in enumerate(facts):
        groups.setdefault(find(index), []).append(fact)
    return list(groups.values())


def _refine(
    colourings: list[list[int]], occurrences, neighbours
) -> list[list[int]] | None:
    """Colour-refine several colourings of one block's nulls in lockstep.

    A null's signature is the multiset of its occurrences, each rendered as
    (relation, position, the fact's args with nulls replaced by their
    colours); constants are negative ids and stay themselves.  Each round
    splits every cell whose members' signatures differ.  Only a null that
    shares a fact with a null recoloured in the previous round can have a
    new signature, so only those are recomputed: a long path costs linear,
    not quadratic, work.  When a cell splits, the part holding its
    untouched members (else the least signature) keeps the cell's colour
    and the other parts take fresh colours in signature order, so equal
    splits give equal colours in every copy.  Returns the stable
    colourings, or None as soon as two copies split differently (no
    isomorphism between the copies respects their colours).
    """
    colourings = [list(colour) for colour in colourings]
    members: list[dict[int, set[int]]] = []
    for colour in colourings:
        cells: dict[int, set[int]] = {}
        for null, c in enumerate(colour):
            cells.setdefault(c, set()).add(null)
        members.append(cells)
    signatures = [[()] * len(colour) for colour in colourings]
    fresh = max(colourings[0], default=-1) + 1
    recoloured: list = [range(len(colour)) for colour in colourings]
    while recoloured[0]:
        splits: list[dict[int, dict[tuple, list[int]]]] = []
        plans = []
        for copy, colour in enumerate(colourings):
            touched = {near for null in recoloured[copy] for near in neighbours[null]}
            split: dict[int, dict[tuple, list[int]]] = {}
            for null in touched:
                signature = signatures[copy][null] = tuple(sorted(
                    (relation, pos, tuple(colour[a] if a >= 0 else a for a in args))
                    for relation, pos, args in occurrences[null]
                ))
                split.setdefault(colour[null], {}).setdefault(signature, []).append(null)
            plan = []
            for cell, parts in split.items():
                keep = next(
                    (signatures[copy][null] for null in members[copy][cell]
                     if null not in touched),
                    min(parts),
                )
                plan.append((cell, keep, sorted((sig, len(part)) for sig, part in parts.items())))
            splits.append(split)
            plans.append(sorted(plan))
        if any(plan != plans[0] for plan in plans[1:]):
            return None
        recoloured = [[] for __ in colourings]
        for cell, keep, parts in plans[0]:
            for signature, __ in parts:
                if signature == keep:
                    continue
                for copy, colour in enumerate(colourings):
                    movers = splits[copy][cell][signature]
                    members[copy][cell].difference_update(movers)
                    members[copy][fresh] = set(movers)
                    for null in movers:
                        colour[null] = fresh
                    recoloured[copy].extend(movers)
                fresh += 1
    return colourings


def _individualize(colour: list[int], null: int, fresh: int) -> list[int]:
    individualized = list(colour)
    individualized[null] = fresh
    return individualized


def _automorphism(
    first: list[int], second: list[int], occurrences, neighbours, fact_set: set
) -> list[int] | None:
    """A checked automorphism mapping colour classes of *first* onto *second*.

    Individualization-refinement over two copies of the block.  Both
    colourings are refined in lockstep, and each node guesses a bijection
    that maps every cell of the first copy onto the same-coloured cell of
    the second, keeping the nulls the two cells share in place (at a
    discrete node this is the only bijection left).  The guess is returned
    if it maps every block fact onto a block fact.  Otherwise the search
    branches: individualize the first null of the smallest non-singleton
    cell of the first copy against each member of that cell in the second.
    Gives up (None) after ``_ORBIT_LEAF_LIMIT`` leaves.
    """
    leaves = 0
    stack = [(first, second)]
    while stack and leaves < _ORBIT_LEAF_LIMIT:
        refined = _refine(list(stack.pop()), occurrences, neighbours)
        if refined is None:
            leaves += 1
            continue
        first, second = refined
        cells: dict[int, list[int]] = {}
        for null, colour in enumerate(first):
            cells.setdefault(colour, []).append(null)
        images: dict[int, list[int]] = {}
        for null, colour in enumerate(second):
            images.setdefault(colour, []).append(null)
        sigma = list(range(len(first)))
        for colour, cell in cells.items():
            kept = set(cell).intersection(images[colour])
            moved = iter([image for image in images[colour] if image not in kept])
            for null in cell:
                if null not in kept:
                    sigma[null] = next(moved)
        if all(
            (relation, tuple(sigma[a] if a >= 0 else a for a in args)) in fact_set
            for relation, args in fact_set
        ):
            return sigma
        if len(cells) == len(first):
            leaves += 1
            continue
        __, colour = min((len(cell), colour) for colour, cell in cells.items() if len(cell) > 1)
        fresh = max(cells) + 1
        pinned = _individualize(first, cells[colour][0], fresh)
        stack.extend(
            (pinned, _individualize(second, image, fresh))
            for image in reversed(images[colour])
        )
    return None


def _null_orbits(
    facts: Iterable[tuple[str, tuple]], is_var: Callable[[object], bool]
) -> dict:
    """An orbit id per null of a block, from automorphisms found and checked.

    *facts* is the block as ``(relation, args)`` pairs and *is_var* tells
    its nulls from its constants.  Two nulls share an id only if a checked
    automorphism of the block maps one to the other, so the ids split the
    true orbits at worst more finely (a search that gives up costs pruning,
    never soundness).

    Colour refinement from the degree profile first splits the nulls into
    cells that every automorphism preserves.  In each non-singleton cell the
    first null r is matched against every other member y: individualize r
    in one copy of the block and y in another, and search for an
    automorphism σ with σ(r) = y (:func:`_automorphism`).  Each σ found
    joins z with σ(z) for every null z.  If r found a partner, the first
    member still apart from r repeats the pass over the rest; a cell whose
    representative found none is left as it is.  Refinement alone would be
    unsound: the Frucht graph is regular, so refinement keeps its nulls in
    one cell, yet it has no automorphism but the identity.
    """
    index: dict = {}
    constants: dict = {}
    relations: dict = {}
    fact_set: set[tuple[int, tuple[int, ...]]] = set()
    for relation, args in facts:
        ids = tuple(
            index.setdefault(arg, len(index)) if is_var(arg)
            else -1 - constants.setdefault(arg, len(constants))
            for arg in args
        )
        fact_set.add((relations.setdefault(relation, len(relations)), ids))
    occurrences: list[list[tuple[int, int, tuple[int, ...]]]] = [[] for __ in index]
    neighbours: list[set[int]] = [set() for __ in index]
    for relation, args in fact_set:
        for pos, arg in enumerate(args):
            if arg >= 0:
                occurrences[arg].append((relation, pos, args))
                neighbours[arg].update(a for a in args if a >= 0)

    parent = list(range(len(index)))

    def root(null: int) -> int:
        while parent[null] != null:
            parent[null] = parent[parent[null]]
            null = parent[null]
        return null

    refined = _refine([[0] * len(index)], occurrences, neighbours)
    assert refined is not None  # a single copy never diverges
    [base] = refined
    cells: dict[int, list[int]] = {}
    for null, colour in enumerate(base):
        cells.setdefault(colour, []).append(null)
    fresh = max(cells, default=0) + 1
    for apart in cells.values():
        while len(apart) > 1:
            rep = apart[0]
            pinned = _individualize(base, rep, fresh)
            partnered = False
            for null in apart[1:]:
                if root(null) != root(rep):
                    sigma = _automorphism(
                        pinned, _individualize(base, null, fresh),
                        occurrences, neighbours, fact_set,
                    )
                    if sigma is None:
                        continue
                    for z, image in enumerate(sigma):
                        parent[root(image)] = root(z)
                partnered = True
            if not partnered:
                break
            apart = [null for null in apart if root(null) != root(rep)]
    return {null: root(i) for null, i in index.items()}


def _first_retraction(
    nulls: Sequence,
    attempt: Callable[[object], dict | None],
    facts: Callable[[], list[tuple[str, tuple]]],
    is_var: Callable[[object], bool],
) -> dict | None:
    """The first mapping ``attempt(x)`` finds over the block's *nulls*, in order.

    Orbit rule: after the first failed attempt, with untried nulls left,
    the block's null orbits are computed once (``_null_orbits(facts(),
    is_var)``), and every later null whose orbit already holds a failed
    null is skipped (``core.orbit_skips``).  Sound because block nulls occur
    only in the block: an automorphism σ of the block, extended by the
    identity, is an automorphism of the instance, and if h eliminates x
    then σ∘h∘σ⁻¹ eliminates σ(x).  A skipped null would have failed, so
    the first null that succeeds, and its mapping, are unchanged.
    """
    orbit_of = None
    failed: set = set()
    for position, null in enumerate(nulls):
        if orbit_of is not None and orbit_of[null] in failed:
            perf.incr("core.orbit_skips")
            continue
        mapping = attempt(null)
        if mapping is not None:
            return mapping
        if orbit_of is None:
            if position + 1 == len(nulls):
                break
            orbit_of = _null_orbits(facts(), is_var)
        failed.add(orbit_of[null])
    return None


def _eliminating_hom(block: Sequence[Atom], target) -> dict | None:
    """Find a retraction of *block* into *target* eliminating one of its nulls.

    Tries each null x of the block in repr order, under the orbit rule of
    :func:`_first_retraction`; "target minus the facts containing x" is
    expressed by passing those facts (looked up in the per-value reverse
    index) to the kernel as a forbidden set.  The nulls of a block occur in
    no other block, so the lookup returns block facts only.
    """

    def attempt(null) -> dict | None:
        forbidden = frozenset(target.facts_containing(null))
        return block_homomorphism(block, target, None, forbidden)

    return _first_retraction(
        _block_nulls(block), attempt,
        lambda: [(fact.relation, fact.args) for fact in block], is_null,
    )


def _process_blocks(builder: InstanceBuilder, pending: deque[list[Atom]]) -> None:
    """Drain the block worklist, applying eliminations to *builder* in place.

    Every image fact of an eliminating homomorphism already exists in the
    target, so applying it means discarding the block facts that left the
    image; the surviving facts may disconnect and are re-enqueued as fresh
    components.  Blocks with no eliminable null are rigid and leave the
    queue permanently (rigidity is monotone as the target shrinks).
    """
    while pending:
        block = pending.popleft()
        mapping = _eliminating_hom(block, builder)
        if mapping is None:
            perf.incr("core.rigid_blocks")
            continue
        perf.incr("core.eliminations")
        images = {fact.rename_values(mapping) for fact in block}
        survivors: list[Atom] = []
        for fact in block:
            if fact in images:
                survivors.append(fact)
            else:
                builder.discard(fact)
        if survivors:
            pending.extend(_null_components(survivors))


def _canonical_block(facts: Sequence[Atom]) -> tuple[Atom, ...] | None:
    """Canonically label the nulls of a block, or None if too symmetric.

    Nulls are grouped by degree profile (multiset of (relation, position)
    occurrences -- an isomorphism invariant) and renamed to ``Null(("#",
    i))``; ties within a profile group are broken by trying every
    within-group permutation and keeping the lexicographically least fact
    tuple, so isomorphic blocks get identical canonical forms.  Returns the
    canonical fact tuple, or None when the tie groups would need more than
    ``_CANON_PERMUTATION_LIMIT`` permutations.
    """
    profiles: dict = {}
    for fact in facts:
        for pos, arg in enumerate(fact.args):
            if is_null(arg):
                profile = profiles.setdefault(arg, {})
                key = (fact.relation, pos)
                profile[key] = profile.get(key, 0) + 1
    groups: dict = {}
    for null, profile in profiles.items():
        groups.setdefault(tuple(sorted(profile.items())), []).append(null)
    total = 1
    for members in groups.values():
        for i in range(2, len(members) + 1):
            total *= i
            if total > _CANON_PERMUTATION_LIMIT:
                return None
    ordered_groups = [sorted(members, key=repr) for __, members in sorted(groups.items())]
    best: tuple[Atom, ...] | None = None
    best_key: list[str] = []
    for orderings in itertools.product(
        *(itertools.permutations(members) for members in ordered_groups)
    ):
        labeling: dict = {}
        for members in orderings:
            for null in members:
                labeling[null] = Null(("#", len(labeling)))
        relabeled = tuple(sorted((f.rename_values(labeling) for f in facts), key=repr))
        relabeled_key = [repr(f) for f in relabeled]
        if best is None or relabeled_key < best_key:
            best = relabeled
            best_key = relabeled_key
    assert best is not None
    return best


class _ColumnarCore:
    """One id-space core computation: per-call caches over a shared ValueTable.

    Every method works on ``(_RelGroup, row)`` pairs; interned value objects
    are touched only through the null-flag list, the memoized per-id repr
    and the memoized encodings of canonical rows -- no :class:`Atom` is
    materialized on the worklist path.  The core interns no value of its
    own, so ``null_flags[vid]`` (is value id *vid* a null?) and
    ``masked[vid]`` (-1 for a null, else *vid*) are filled once from the
    whole table.
    """

    __slots__ = ("values", "null_flags", "masked", "_reprs", "_row_encodings")

    def __init__(self, values) -> None:
        self.values = values
        value = values.value
        self.null_flags: list[bool] = [is_null(value(vid)) for vid in range(len(values))]
        self.masked: list[int] = [
            -1 if flag else vid for vid, flag in enumerate(self.null_flags)
        ]
        self._reprs: dict[int, str] = {}
        #: ``encode_atom_parts`` bytes of each canonical row key of
        #: :meth:`block_fingerprint`.
        self._row_encodings: dict[tuple[str, tuple[int, ...]], bytes] = {}

    # ------------------------------------------------------ per-id accessors

    def vid_repr(self, vid: int) -> str:
        text = self._reprs.get(vid)
        if text is None:
            text = self._reprs[vid] = repr(self.values.value(vid))
        return text

    # ------------------------------------------------------------- structure

    def null_components(self, rows: Sequence[_Row]) -> list[list[_Row]]:
        """Split rows into connected components linked by shared null ids."""
        null_flags = self.null_flags
        anchor_of: dict[int, int] = {}
        parent = list(range(len(rows)))

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for index, (group, row) in enumerate(rows):
            for column in group.columns:
                vid = column[row]
                if not null_flags[vid]:
                    continue
                anchor = anchor_of.setdefault(vid, index)
                if anchor != index:
                    root_a, root_b = find(anchor), find(index)
                    if root_a != root_b:
                        parent[root_b] = root_a
        components: dict[int, list[_Row]] = {}
        for index, entry in enumerate(rows):
            components.setdefault(find(index), []).append(entry)
        return list(components.values())

    def null_blocks(self, store: ColumnarInstance) -> list[list[_Row]]:
        """The f-blocks of *store* that contain a null (ground rows stay put)."""
        null_flags = self.null_flags
        rows: list[_Row] = [
            (group, row)
            for groups in store._groups.values()
            for group in groups
            for row in group.live_rows()
        ]
        blocks: list[list[_Row]] = []
        for component in self.null_components(rows):
            group, row = component[0]
            if len(component) > 1 or any(
                null_flags[column[row]] for column in group.columns
            ):
                blocks.append(component)
        return blocks

    # -------------------------------------------------------- canonical form

    def block_invariant(self, block: Sequence[_Row]) -> int:
        """Hash of an isomorphism invariant of the block, far cheaper than
        :meth:`block_fingerprint`.

        The invariant is the sorted tuple of ``(relation, id row)`` pairs with
        every null id replaced by -1.  An isomorphism renames nulls only, so
        isomorphic blocks have equal invariants; only the hash is returned,
        so the per-block tuples never outlive the call.
        """
        masked = self.masked
        return hash(tuple(sorted([
            (group.relation, tuple([masked[column[row]] for column in group.columns]))
            for group, row in block
        ])))

    def block_fingerprint(self, block: Sequence[_Row]) -> str | None:
        """Fingerprint of the block's canonical labeling, or None if too symmetric.

        The labeling rule is :func:`_canonical_block`'s, in id space: nulls
        group by degree profile, groups are ordered by profile, and more than
        ``_CANON_PERMUTATION_LIMIT`` within-group permutations give None.
        Each permutation labels the nulls 0, 1, ... in order, and keys every
        row as ``(relation, ids)``, a null being ``-1 - label`` and a
        constant its value id; the winner is the least sorted key list.
        Every permutation that respects the profile order is tried, so
        isomorphic blocks of one store get equal key lists, and the key list
        determines the block up to renaming its nulls: equal fingerprints
        mean isomorphic blocks.  Value ids are per store, so fingerprints
        are comparable within one core computation only.  The winner's rows
        are encoded through :attr:`_row_encodings`, so a canonical row met
        in many blocks is encoded once.
        """
        null_flags = self.null_flags
        rows = [
            (group.relation, [column[row] for column in group.columns])
            for group, row in block
        ]
        profiles: dict[int, dict[tuple[str, int], int]] = {}
        for relation, ids in rows:
            for pos, vid in enumerate(ids):
                if null_flags[vid]:
                    profile = profiles.setdefault(vid, {})
                    key = (relation, pos)
                    profile[key] = profile.get(key, 0) + 1
        groups: dict[tuple, list[int]] = {}
        for vid, profile in profiles.items():
            groups.setdefault(tuple(sorted(profile.items())), []).append(vid)
        total = 1
        for members in groups.values():
            for i in range(2, len(members) + 1):
                total *= i
                if total > _CANON_PERMUTATION_LIMIT:
                    return None
        ordered_groups = [sorted(members) for __, members in sorted(groups.items())]
        best: list[tuple[str, tuple[int, ...]]] | None = None
        for orderings in itertools.product(
            *(itertools.permutations(members) for members in ordered_groups)
        ):
            labeling: dict[int, int] = {}
            for members in orderings:
                for vid in members:
                    labeling[vid] = -1 - len(labeling)
            label = labeling.get
            keys = sorted([
                (relation, tuple([label(vid, vid) for vid in ids])) for relation, ids in rows
            ])
            if best is None or keys < best:
                best = keys
        assert best is not None
        row_encodings = self._row_encodings
        value = self.values.value
        encodings: list[bytes] = []
        for key in best:
            encoding = row_encodings.get(key)
            if encoding is None:
                relation, ids = key
                encoding = row_encodings[key] = encode_atom_parts(relation, [
                    encode_canonical_null(-1 - vid) if vid < 0 else encode_value(value(vid))
                    for vid in ids
                ])
            encodings.append(encoding)
        return fingerprint_encoded_sequence(encodings)

    # ------------------------------------------------------------ elimination

    def encode_block(self, block: Sequence[_Row]) -> list[EncodedFact]:
        """Encode block rows for :func:`solve_encoded`: null ids are the vars."""
        null_flags = self.null_flags
        return [
            EncodedFact(
                group,
                tuple(
                    (_ID_VAR, vid) if null_flags[vid := column[row]]
                    else (_ID_CONST, vid)
                    for column in group.columns
                ),
            )
            for group, row in block
        ]

    def block_nulls(self, block: Sequence[_Row]) -> dict[int, dict[_RelGroup, set[int]]]:
        """The null ids of a block, each with the block's rows that hold it.

        The row sets are the forbidden sets of the null's elimination
        attempt: a null occurs only in its own f-block, and eliminations
        tombstone rows of the processed block only, so the block's rows are
        every live row that holds it.  Keys are repr-sorted (the order the
        tuple engine tries its elimination candidates in); a block with one
        null skips the sort.
        """
        null_flags = self.null_flags
        rows_of: dict[int, dict[_RelGroup, set[int]]] = {}
        for group, row in block:
            for column in group.columns:
                vid = column[row]
                if not null_flags[vid]:
                    continue
                groups = rows_of.get(vid)
                if groups is None:
                    rows_of[vid] = {group: {row}}
                    continue
                rows = groups.get(group)
                if rows is None:
                    groups[group] = {row}
                else:
                    rows.add(row)
        if len(rows_of) == 1:
            return rows_of
        return {vid: rows_of[vid] for vid in sorted(rows_of, key=self.vid_repr)}

    def eliminating_hom(self, block: Sequence[_Row]) -> dict[object, int] | None:
        """Id-space twin of :func:`_eliminating_hom`: retraction dropping a null."""
        encoded = self.encode_block(block)
        nulls = self.block_nulls(block)
        return _first_retraction(
            list(nulls),
            lambda vid: solve_encoded(encoded, nulls[vid]),
            lambda: [
                (group.relation, tuple(column[row] for column in group.columns))
                for group, row in block
            ],
            self.null_flags.__getitem__,
        )

    def process_blocks(
        self, store: ColumnarInstance, pending: "deque[list[_Row]]"
    ) -> None:
        """Id-space twin of :func:`_process_blocks`: eliminations tombstone rows."""
        while pending:
            block = pending.popleft()
            mapping = self.eliminating_hom(block)
            if mapping is None:
                perf.incr("core.rigid_blocks")
                continue
            perf.incr("core.eliminations")
            images: set[tuple[_RelGroup, tuple[int, ...]]] = set()
            for group, row in block:
                image = tuple(
                    mapping.get(column[row], column[row]) for column in group.columns
                )
                images.add((group, image))
            survivors: list[_Row] = []
            for group, row in block:
                own = tuple(column[row] for column in group.columns)
                if (group, own) in images:
                    survivors.append((group, row))
                else:
                    store.discard_row(group, row)
            if survivors:
                pending.extend(self.null_components(survivors))


def _core_columnar(instance: Instance) -> Instance:
    """Compute the core in id-space over a columnar store.

    *instance* is encoded once into a :class:`ColumnarInstance`, whose rows
    eliminations then tombstone in place.  Same structure as the tuple path
    in :func:`core`: split into f-blocks, drop isomorphic duplicates, then
    drain the global worklist.  Only blocks whose invariant hash
    (:meth:`_ColumnarCore.block_invariant`) another block shares are
    fingerprinted; a hash collision costs one needless fingerprint, never a
    fold.  A ground *instance* (no null to eliminate), or one where nothing
    was eliminated, is its own core and is returned as is.
    """
    if not _has_nulls(instance):
        return instance
    store = ColumnarInstance(instance)
    engine = _ColumnarCore(store.values)
    blocks = engine.null_blocks(store)
    perf.incr("core.blocks", len(blocks))

    invariants = [engine.block_invariant(block) for block in blocks]
    shared = {invariant for invariant, count in Counter(invariants).items() if count > 1}
    pending: deque[list[_Row]] = deque()
    seen: set[str] = set()
    for block, invariant in zip(blocks, invariants):
        fingerprint = engine.block_fingerprint(block) if invariant in shared else None
        if fingerprint is not None:
            if fingerprint in seen:
                perf.incr("core.iso_folds")
                for group, row in block:
                    store.discard_row(group, row)
                continue
            seen.add(fingerprint)
        pending.append(block)
    engine.process_blocks(store, pending)
    if len(store) == len(instance):
        return instance
    return store.to_instance()


def core(instance: Instance, *, backend: str = "tuple") -> Instance:
    """Return the core of *instance*.

        >>> from repro.logic.parser import parse_instance
        >>> core(parse_instance("R(a, _x), R(a, b)"))
        Instance{R(a, b)}

    The result contains the same constants as the input and a subset of its
    facts; it is homomorphically equivalent to the input and no proper
    subinstance of it is.

    ``backend`` selects the execution engine: ``"tuple"`` (this module's
    object worklist -- the reference), ``"columnar"`` (id-space over a
    :class:`~repro.engine.columnar.ColumnarInstance`), ``"sql"`` (per-block
    eliminating homomorphisms as SELECT joins), or ``"auto"``, which
    :func:`~repro.engine.dispatch.choose_core_backend` resolves to
    ``"columnar"`` at every size.  All backends return the same core up to
    isomorphism.
    """
    if backend != "tuple":
        from repro.engine.dispatch import choose_core_backend

        sql_supported = False
        blocks = None
        if backend == "sql":
            from repro.engine.sql_backend import sql_core_supported

            blocks = _null_blocks(instance)
            sql_supported = sql_core_supported(instance, blocks)
        choice = choose_core_backend(
            backend, input_size=len(instance), sql_supported=sql_supported
        )
        if choice.backend == "sql":
            from repro.engine.sql_backend import sql_core

            return sql_core(instance, blocks=blocks)
        if choice.backend == "columnar":
            return _core_columnar(instance)
    null_blocks = _null_blocks(instance)
    perf.incr("core.blocks", len(null_blocks))
    null_blocks.sort(key=lambda facts: [repr(f) for f in facts])

    # Drop isomorphic duplicates (equal canonical form => the isomorphism is
    # a wholesale eliminating retraction into the kept representative).
    builder = InstanceBuilder(instance)
    pending: deque[list[Atom]] = deque()
    seen: set[str] = set()
    for block_facts in null_blocks:
        canon = _canonical_block(block_facts)
        if canon is not None:
            fingerprint = fingerprint_fact_sequence(canon)
            if fingerprint in seen:
                perf.incr("core.iso_folds")
                for fact in block_facts:
                    builder.discard(fact)
                continue
            seen.add(fingerprint)
        pending.append(block_facts)
    _process_blocks(builder, pending)
    return builder.freeze()


def is_core(instance: Instance) -> bool:
    """Return True if *instance* equals its own core (no null is eliminable)."""
    return all(
        _eliminating_hom(block_facts, instance) is None
        for block_facts in _null_blocks(instance)
    )


__all__ = ["core", "is_core"]
