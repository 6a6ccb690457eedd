"""The non-crossing lattice, kept as the tests' independent check of the
Narayana profile behind `stirling_polynomial`: the non-crossing partitions
of {0,...,p-1} by a stack of open blocks, and the Kreweras complement
(Kreweras 1972) from the cycles of one permutation (Biane 1997)."""

from typing import Iterator

from fouriermoments.errors import ParameterError
from fouriermoments.partitions import SetPartition


def noncrossing_partitions(p: int) -> Iterator[SetPartition]:
    """Yield the non-crossing partitions of {0,...,p-1}, each exactly once."""
    for rgs in _nc_rgs(p, [], []):
        yield SetPartition.from_rgs(rgs)


def _nc_rgs(p: int, rgs: list[int], stack: list[int]) -> Iterator[list[int]]:
    # Element len(rgs) joins a block on the stack of open blocks, closing the
    # blocks above it (a later element of theirs would cross), or opens one.
    if len(rgs) == p:
        yield rgs
        return
    opened = stack + [len(set(rgs))]
    for depth, block in enumerate(opened):
        yield from _nc_rgs(p, rgs + [block], opened[:depth + 1])


def _kreweras_cycles(part: SetPartition) -> list[list[int]]:
    """The cycles of x -> pi^-1(x + 1 mod p), pi the permutation that cycles
    each block of `part` in increasing order. Their number plus the block
    count is at most p + 1, with equality exactly when `part` is non-crossing
    (Biane), and then they are the blocks of its Kreweras complement."""
    p = part.p
    inverse = [0] * p
    for block in part.blocks:
        for element, previous in zip(block, block[-1:] + block[:-1]):
            inverse[element] = previous
    cycles, unseen = [], [True] * p
    for start in range(p):
        cycle, x = [], start
        while unseen[x]:
            unseen[x] = False
            cycle.append(x)
            x = inverse[(x + 1) % p]
        if cycle:
            cycles.append(cycle)
    return cycles


def is_noncrossing(part: SetPartition) -> bool:
    """True iff no a<b<c<d has a,c in one block and b,d in another."""
    return part.p == 0 or part.num_blocks + len(_kreweras_cycles(part)) == part.p + 1


def kreweras_complement(part: SetPartition) -> SetPartition:
    """Kreweras complement of a non-crossing partition, from _kreweras_cycles.
    Satisfies |part| + |complement| = p + 1."""
    cycles = _kreweras_cycles(part)  # is_noncrossing's test, on cycles built once
    if part.p and part.num_blocks + len(cycles) != part.p + 1:
        raise ParameterError("Kreweras complement requires a non-crossing partition")
    return SetPartition.from_blocks(cycles)
