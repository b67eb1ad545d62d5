"""Partitions and partitionings of a worker population.

A :class:`Partition` is a group of workers defined by a conjunction of
protected-attribute constraints (the path from the root of a split tree).
Its members are row indices into a shared
:class:`~repro.core.population.Population` — splitting never copies worker
data.  A partition the atom-table search creates instead carries the rows
of the :class:`~repro.engine.atoms.AtomTable` it covers (see
:meth:`Partition.from_atoms`) and builds its member index array only when
something reads it: validation, repair and reporting.

A :class:`Partitioning` is the object the paper's optimisation problem ranges
over: a full disjoint cover of the population by partitions.  Empty cells are
never materialised (an empty partition has no score histogram), so
"full disjoint" here means the member index arrays are pairwise disjoint and
their union is the whole population.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.core.attributes import CategoricalAttribute
from repro.core.population import Population
from repro.core.schema import WorkerSchema
from repro.exceptions import PartitioningError

__all__ = ["Partition", "Partitioning", "common_atom_table", "content_key"]

#: One constraint: (protected attribute name, partition code).
Constraint = tuple[str, int]


class Partition:
    """A non-empty group of workers selected by attribute constraints.

    Identity semantics: two Partition objects are distinct cache keys even if
    they contain the same members (use :meth:`same_members` to compare
    contents).  This keeps histogram caching trivially correct.

    ``atom_table`` / ``atom_rows`` are set when the partition is known to be
    exactly the union of those (ascending) rows of that table — by
    construction (:meth:`from_atoms`) or after an engine resolved it.
    """

    __slots__ = ("_indices", "constraints", "size", "atom_table", "atom_rows")

    def __init__(self, indices: np.ndarray, constraints: tuple[Constraint, ...] = ()) -> None:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise PartitioningError("partition indices must be one-dimensional")
        if indices.size == 0:
            raise PartitioningError("partitions must be non-empty; drop empty cells instead")
        indices = np.sort(indices)
        if np.any(indices[1:] == indices[:-1]):
            raise PartitioningError("partition contains duplicate worker indices")
        indices.setflags(write=False)
        self._indices = indices
        self.constraints = tuple(constraints)
        #: Number of workers in this partition.
        self.size = int(indices.shape[0])
        self.atom_table = None
        self.atom_rows: "np.ndarray | None" = None

    @classmethod
    def from_atoms(
        cls,
        table,
        rows: np.ndarray,
        constraints: tuple[Constraint, ...],
        size: "int | None" = None,
    ) -> "Partition":
        """The partition whose members are exactly the workers of atom
        ``rows`` (ascending, non-empty) of ``table``; its member index array
        is built from ``table.worker_atom`` on first access.  ``size``, when
        given, must be those atoms' total size."""
        partition = cls.__new__(cls)
        partition._indices = None
        partition.constraints = constraints
        partition.size = int(table.sizes[rows].sum()) if size is None else size
        partition.atom_table = table
        partition.atom_rows = rows
        return partition

    @property
    def indices(self) -> np.ndarray:
        """Sorted, read-only int64 member indices."""
        if self._indices is None:
            table = self.atom_table
            selected = np.zeros(table.n_atoms, dtype=bool)
            selected[self.atom_rows] = True
            indices = np.flatnonzero(selected[table.worker_atom])
            indices.setflags(write=False)
            self._indices = indices
        return self._indices

    def constrained_attributes(self) -> tuple[str, ...]:
        """Names of the attributes this partition is constrained on."""
        return tuple(name for name, _ in self.constraints)

    def label(self, schema: WorkerSchema) -> str:
        """Human-readable description, e.g. ``"gender=Male ∧ language=English"``."""
        if not self.constraints:
            return "ALL"
        parts = []
        for name, code in self.constraints:
            attr = schema.protected_attribute(name)
            if isinstance(attr, CategoricalAttribute):
                parts.append(f"{name}={attr.code_label(code)}")
            else:
                parts.append(f"{name}∈[{attr.code_label(code)}]")
        return " ∧ ".join(parts)

    def same_members(self, other: "Partition") -> bool:
        """True if both partitions contain exactly the same workers."""
        return self.indices.shape == other.indices.shape and bool(
            np.array_equal(self.indices, other.indices)
        )

    def nbytes(self) -> int:
        """Bytes of the index arrays this partition holds: its atom rows,
        and its member indices once built."""
        total = 0 if self.atom_rows is None else int(self.atom_rows.nbytes)
        if self._indices is not None:
            total += int(self._indices.nbytes)
        return total

    def members_key(self) -> bytes:
        """Hashable canonical key of the member set (for deduplication).

        The raw bytes of the sorted int64 index array: one memcpy instead
        of n Python int boxings, and a smaller hash target.  Keys are only
        comparable between partitions of the same population.
        """
        return self.indices.tobytes()

    def __repr__(self) -> str:
        constraint_str = ", ".join(f"{n}={c}" for n, c in self.constraints) or "ALL"
        return f"Partition(size={self.size}, {constraint_str})"


class Partitioning:
    """A full disjoint partitioning of a population.

    Construction validates the paper's constraints: partitions are pairwise
    disjoint and their union covers every worker.
    """

    def __init__(self, partitions: Sequence[Partition], population_size: int) -> None:
        partitions = list(partitions)
        if not partitions:
            raise PartitioningError("a partitioning needs at least one partition")
        total = sum(p.size for p in partitions)
        if total != population_size:
            raise PartitioningError(
                f"partitioning covers {total} workers, population has {population_size}"
            )
        table = common_atom_table(partitions)
        if table is not None:
            # Atoms are non-empty, disjoint and cover the population, so a
            # disjoint cover of the atoms is one of the workers.
            combined = np.concatenate([p.atom_rows for p in partitions])
            expected = table.n_atoms
        else:
            combined = np.concatenate([p.indices for p in partitions])
            expected = population_size
        combined.sort()
        if combined.size != expected or not np.array_equal(
            combined, np.arange(expected, dtype=np.int64)
        ):
            raise PartitioningError(
                "partitions are not a full disjoint cover of the population"
            )
        self.partitions = partitions
        self.population_size = population_size

    @classmethod
    def single(cls, population: Population) -> "Partitioning":
        """The trivial partitioning: all workers in one root partition."""
        return cls([Partition(population.all_indices())], population.size)

    @property
    def k(self) -> int:
        """Number of partitions."""
        return len(self.partitions)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.partitions)

    def __len__(self) -> int:
        return len(self.partitions)

    def attributes_used(self) -> tuple[str, ...]:
        """All attributes constrained in at least one partition, sorted."""
        used: set[str] = set()
        for p in self.partitions:
            used.update(p.constrained_attributes())
        return tuple(sorted(used))

    def max_depth(self) -> int:
        """Depth of the deepest partition in the underlying split tree."""
        return max(len(p.constraints) for p in self.partitions)

    def canonical_key(self) -> frozenset[bytes]:
        """Content-based key: the set of member sets.

        Two partitionings with the same key group the workers identically
        even if they were reached through different split trees or through
        the atom and member paths.  It reads every member array; searches
        deduplicate candidates with :func:`content_key` instead.
        """
        return frozenset(p.members_key() for p in self.partitions)

    def describe(self, schema: WorkerSchema) -> list[str]:
        """One label per partition, ordered largest first."""
        ordered = sorted(self.partitions, key=lambda p: (-p.size, p.constraints))
        return [f"{p.label(schema)} (n={p.size})" for p in ordered]

    def __repr__(self) -> str:
        return f"Partitioning(k={self.k}, population_size={self.population_size})"


def content_key(partitions: Sequence[Partition]) -> tuple:
    """Hashable key of the member sets of ``partitions``, for deduplicating
    candidates within one search.

    When every partition carries rows of one atom table the key is the set
    of their atom-row bytes — atoms are disjoint and cover the population,
    so an atom set identifies a member set — and no member array is built.
    Otherwise it is the set of member-index bytes.  The two kinds are
    tagged, so they never compare equal to each other.
    """
    if common_atom_table(partitions) is not None:
        return ("atoms", frozenset(p.atom_rows.tobytes() for p in partitions))
    return ("members", frozenset(p.members_key() for p in partitions))


def common_atom_table(partitions: Sequence[Partition]):
    """The atom table every partition carries rows of, or None."""
    table = partitions[0].atom_table if partitions else None
    if table is None or any(p.atom_table is not table for p in partitions):
        return None
    return table
