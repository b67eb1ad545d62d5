"""Atom-table sufficient statistics for the partitioning search.

The search only ever forms partitions from *conjunctions of
protected-attribute values*, so every partition the algorithms can reach
is a union of the finest non-empty attribute cells — the **atoms**.  An
:class:`AtomTable` precomputes, once per (population, scoring-function)
binding, the ``(n_atoms, bins)`` int64 contingency cube of per-atom score
histograms plus the per-atom code tuples needed to map any constraint
conjunction onto a subset of atom rows.

With the table in hand the hot paths stop touching member-index arrays:

* a candidate partition's histogram is an integer **row-sum** over its
  atom rows — O(atoms x bins), independent of the population size;
* every single-attribute split of a greedy step is a **grouped
  aggregation**: group the parent's atom rows by that attribute's code
  column and sum each group.

Everything stays **bit-identical** to the member-array path: the row-sums
are exact int64 arithmetic, so they equal ``bincount`` over the member
rows, and the float64 pmfs obtained by dividing by the same integer size
are the same IEEE values the legacy path produces.

The partitions the search forms never need resolving: the root carries
every atom row, and every split groups its parent's rows
(:meth:`AtomTable.group_rows`), so each child carries its own (see
:meth:`~repro.core.partition.Partition.from_atoms`).  Any other partition
is resolved from its ``constraints``, which are trusted as the predicate
defining its member set; resolution cross-checks the conjunction's total
atom size against ``partition.size`` and falls back to the member path on
any mismatch, so hand-built partitions whose constraints do not describe
their members degrade gracefully instead of mis-resolving.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import Partition
    from repro.core.population import Population

__all__ = ["AtomTable", "RowGroups", "protected_cards", "encode_codes", "decode_keys"]


def protected_cards(schema) -> "tuple[tuple[str, ...], tuple[int, ...]]":
    """Protected attribute names and cardinalities, in schema (radix) order."""
    names = tuple(schema.protected_names)
    cards = tuple(schema.protected_attribute(name).cardinality for name in names)
    return names, cards


def encode_codes(codes: Sequence[int], cards: Sequence[int]) -> int:
    """Mixed-radix fold of one code tuple — the atom key of one worker.

    Must match :meth:`AtomTable.build`'s vectorised fold exactly: the first
    attribute is the most significant digit.
    """
    key = 0
    for code, card in zip(codes, cards):
        key = key * card + int(code)
    return key


def decode_keys(keys: np.ndarray, cards: Sequence[int]) -> np.ndarray:
    """Invert the mixed-radix fold: ``(n_atoms, n_attributes)`` code columns."""
    n_atoms = int(keys.shape[0])
    codes = np.empty((n_atoms, len(cards)), dtype=np.int64)
    if len(cards):
        remainder = np.asarray(keys, dtype=np.int64)
        for j in range(len(cards) - 1, 0, -1):
            remainder, codes[:, j] = np.divmod(remainder, cards[j])
        codes[:, 0] = remainder
    return codes


class AtomTable:
    """The finest protected-attribute cells of one population, with their
    score histograms.

    Attributes
    ----------
    attribute_names:
        Protected attribute names, in schema order (the code-column order).
    codes:
        ``(n_atoms, n_attributes)`` int64 — partition code of each atom on
        each attribute.
    counts:
        ``(n_atoms, bins)`` int64 — score histogram of each atom's members.
    sizes:
        ``(n_atoms,)`` int64 — members per atom (``counts.sum(axis=1)``).
    worker_atom:
        ``(n,)`` int64 — atom row of every worker.
    """

    __slots__ = (
        "attribute_names",
        "codes",
        "counts",
        "sizes",
        "worker_atom",
        "_attr_index",
        "_radix",
    )

    def __init__(
        self,
        attribute_names: tuple[str, ...],
        codes: np.ndarray,
        counts: np.ndarray,
        worker_atom: np.ndarray,
    ) -> None:
        self.attribute_names = attribute_names
        self.codes = codes
        self.counts = counts
        self.sizes = counts.sum(axis=1)
        self.worker_atom = worker_atom
        self._attr_index = {name: j for j, name in enumerate(attribute_names)}
        #: Per attribute, one more than its largest code: the radix that
        #: keys (row set, code) pairs in :meth:`group_rows`.
        self._radix = [
            int(self.codes[:, j].max()) + 1 if self.codes.shape[0] else 1
            for j in range(len(attribute_names))
        ]
        for array in (self.codes, self.counts, self.sizes, self.worker_atom):
            array.setflags(write=False)

    # ------------------------------------------------------------ construction

    @classmethod
    def build(cls, population: "Population", bin_idx: np.ndarray, bins: int) -> "AtomTable":
        """Compute the table for one population/digitised-score binding.

        One O(n) pass: workers are keyed by the mixed-radix encoding of
        their partition codes, unique keys become atom rows, and the count
        cube is a single flat ``bincount`` over ``atom * bins + bin``.
        """
        names = tuple(population.schema.protected_names)
        cards = [
            population.schema.protected_attribute(name).cardinality for name in names
        ]
        if names:
            key = population.partition_codes(names[0]).astype(np.int64)
            for name, card in zip(names[1:], cards[1:]):
                key = key * card + population.partition_codes(name)
        else:
            key = np.zeros(population.size, dtype=np.int64)
        unique_keys, worker_atom = np.unique(key, return_inverse=True)
        worker_atom = worker_atom.astype(np.int64)
        n_atoms = int(unique_keys.shape[0])
        counts = np.bincount(
            worker_atom * bins + np.asarray(bin_idx, dtype=np.int64),
            minlength=n_atoms * bins,
        ).reshape(n_atoms, bins)
        codes = decode_keys(unique_keys, cards)
        return cls(names, codes, np.ascontiguousarray(counts, dtype=np.int64), worker_atom)

    @classmethod
    def from_key_counts(
        cls,
        attribute_names: tuple[str, ...],
        cards: Sequence[int],
        keys: np.ndarray,
        counts: np.ndarray,
    ) -> "AtomTable":
        """Build a table directly from per-atom (key, histogram) pairs.

        This is the streaming path: a
        :class:`~repro.engine.streaming.MutableAtomState` maintains the
        key → histogram mapping incrementally and materialises it here.
        ``keys`` must be sorted ascending — the order :meth:`build` produces
        via ``np.unique`` — so a table built from identical statistics is
        bit-identical to a from-scratch build.  ``worker_atom`` is the
        identity: in the streaming proxy, "worker" *i* is atom *i*.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size > 1 and not bool(np.all(keys[1:] > keys[:-1])):
            raise ValueError("atom keys must be strictly ascending")
        codes = decode_keys(keys, cards)
        counts = np.ascontiguousarray(counts, dtype=np.int64)
        worker_atom = np.arange(keys.shape[0], dtype=np.int64)
        return cls(attribute_names, codes, counts, worker_atom)

    # ------------------------------------------------------------- inspection

    @property
    def n_atoms(self) -> int:
        """Number of non-empty finest cells."""
        return int(self.codes.shape[0])

    @property
    def bins(self) -> int:
        """Histogram bins per atom."""
        return int(self.counts.shape[1])

    def attribute_index(self, name: str) -> int:
        """Code-column index of a protected attribute (KeyError if unknown)."""
        return self._attr_index[name]

    def nbytes(self) -> int:
        """Approximate memory footprint of the table's arrays."""
        return int(
            self.codes.nbytes + self.counts.nbytes + self.sizes.nbytes + self.worker_atom.nbytes
        )

    def fingerprint(self) -> str:
        """Content-addressed SHA-256 over the table's defining arrays.

        Two tables with the same fingerprint hold byte-identical codes,
        counts, sizes and worker→atom mapping for the same attribute order —
        the identity the service's cross-job cache keys entries on.  The
        digest covers array *shapes* too, so reshaped-but-equal-bytes data
        cannot alias.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(repr(tuple(self.attribute_names)).encode())
        for array in (self.codes, self.counts, self.sizes, self.worker_atom):
            digest.update(repr((array.shape, str(array.dtype))).encode())
            digest.update(np.ascontiguousarray(array).tobytes())
        return digest.hexdigest()

    # -------------------------------------------------------------- resolution

    def rows_for_constraints(
        self, constraints: Sequence[tuple[str, int]]
    ) -> np.ndarray:
        """Atom rows whose codes satisfy a constraint conjunction.

        Raises ``KeyError`` for a constraint on an unknown attribute (the
        caller falls back to the member path, which raises the canonical
        error).
        """
        if not constraints:
            return np.arange(self.n_atoms, dtype=np.int64)
        mask = np.ones(self.n_atoms, dtype=bool)
        for name, code in constraints:
            mask &= self.codes[:, self.attribute_index(name)] == code
        return np.flatnonzero(mask)

    def resolve(self, partition: "Partition") -> "np.ndarray | None":
        """Atom rows of one partition, or None when it cannot be trusted.

        Resolution is purely constraint-based (never touches the member
        array) and is accepted only when the matched atoms' total size
        equals the partition's size — the cross-check that rejects
        partitions whose constraints do not describe their members.
        """
        try:
            rows = self.rows_for_constraints(partition.constraints)
        except KeyError:
            return None
        if rows.shape[0] == 0 or int(self.sizes[rows].sum()) != partition.size:
            return None
        return rows

    def verify(self, partition: "Partition", rows: np.ndarray) -> bool:
        """Strong (O(|partition|)) check that ``rows`` is exactly the atom
        set of the partition's members; used by the property tests."""
        members = np.bincount(
            self.worker_atom[partition.indices], minlength=self.n_atoms
        )
        expected = np.zeros(self.n_atoms, dtype=np.int64)
        expected[rows] = self.sizes[rows]
        return bool(np.array_equal(members, expected))

    # ------------------------------------------------------------- aggregation

    def histogram(self, rows: np.ndarray) -> np.ndarray:
        """Int64 score histogram of the union of ``rows`` (exact row-sum,
        equal to ``bincount`` over the matching member indices)."""
        return self.counts[rows].sum(axis=0)

    def group_rows(self, row_sets: Sequence[np.ndarray], attribute: str) -> "RowGroups":
        """Group every row set by one attribute's code column, in one
        stable sort over all of them (see :class:`RowGroups`)."""
        column = self.attribute_index(attribute)
        radix = self._radix[column]
        rows = np.concatenate(row_sets)
        owner = np.repeat(
            np.arange(len(row_sets), dtype=np.int64), [len(r) for r in row_sets]
        )
        rows, starts, owners, codes, sizes = self._sort_groups(
            rows, owner * radix + self.codes[rows, column], radix
        )
        return RowGroups(owners.tolist(), codes, starts, rows, sizes)

    def group_each(
        self, rows: np.ndarray, attributes: Sequence[str]
    ) -> "tuple[list[RowGroups], np.ndarray, np.ndarray]":
        """Group one row set by each attribute's code column, in one stable
        sort over all of them.

        Returns one :class:`RowGroups` per attribute, then the int64
        histograms and sizes of all their groups, stacked in that order.
        """
        columns = [self.attribute_index(name) for name in attributes]
        radix = max(self._radix[column] for column in columns)
        n = len(rows)
        # One key per (attribute, row), attribute-major: attribute i's rows
        # sort into positions [i * n, (i + 1) * n).
        codes = self.codes[rows[np.newaxis, :], np.array(columns)[:, np.newaxis]]
        offsets = radix * np.arange(len(columns), dtype=np.int64)[:, np.newaxis]
        rows, starts, which, codes, sizes = self._sort_groups(
            np.concatenate([rows] * len(columns)), (codes + offsets).ravel(), radix
        )
        counts = np.add.reduceat(self.counts[rows], starts, axis=0)
        bounds = np.searchsorted(which, np.arange(len(columns) + 1)).tolist()
        grouped = [
            RowGroups(
                [0] * (last - first),
                codes[first:last],
                starts[first:last] - i * n,
                rows[i * n : (i + 1) * n],
                sizes[first:last],
            )
            for i, (first, last) in enumerate(zip(bounds, bounds[1:]))
        ]
        return grouped, counts, sizes

    def _sort_groups(self, rows: np.ndarray, key: np.ndarray, radix: int):
        """Stable sort of ``rows`` by ``key = outer * radix + code``.

        Returns the sorted rows, each group's start, outer key (array),
        code (list) and size.
        """
        order = np.argsort(key, kind="stable")
        rows = rows[order]
        key = key[order]
        starts = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        outer, codes = np.divmod(key[starts], radix)
        return rows, starts, outer, codes.tolist(), np.add.reduceat(self.sizes[rows], starts)

    def group_histograms(self, grouped: "RowGroups") -> np.ndarray:
        """Int64 score histogram of every group, one row per group — exact
        sums, equal to :meth:`histogram` of each group."""
        return np.add.reduceat(self.counts[grouped.rows], grouped.starts, axis=0)

    def __repr__(self) -> str:
        return (
            f"AtomTable(n_atoms={self.n_atoms}, bins={self.bins}, "
            f"attributes={list(self.attribute_names)})"
        )


class RowGroups:
    """Atom rows of one or more row sets, grouped by one attribute's code.

    Group ``g`` is ``rows[starts[g]:starts[g + 1]]`` (the last one runs to
    the end): the rows of row set ``owners[g]`` whose code is ``codes[g]``,
    holding ``sizes[g]`` workers.  Groups are ordered by row set, then by
    ascending code — the order :func:`~repro.core.splitting.split_partitions`
    gives children — and each keeps its rows in input order, so ascending
    row sets give ascending groups.
    """

    __slots__ = ("owners", "codes", "starts", "rows", "sizes")

    def __init__(
        self,
        owners: "list[int]",
        codes: "list[int]",
        starts: np.ndarray,
        rows: np.ndarray,
        sizes: np.ndarray,
    ) -> None:
        self.owners = owners
        self.codes = codes
        self.starts = starts
        self.rows = rows
        self.sizes = sizes

    def groups(self) -> list[np.ndarray]:
        """The groups' rows, as views of :attr:`rows`."""
        bounds = self.starts.tolist() + [len(self.rows)]
        return [self.rows[a:b] for a, b in zip(bounds, bounds[1:])]

    def children(self, parents: Sequence["Partition"], attribute: str, make) -> list:
        """One child per group: ``make(rows, constraints, size)``, where the
        constraints extend the owning parent's with ``(attribute, code)``."""
        return [
            make(rows, parents[owner].constraints + ((attribute, code),), size)
            for owner, code, rows, size in zip(
                self.owners, self.codes, self.groups(), self.sizes.tolist()
            )
        ]
