"""Distance-based diversity baselines and ultrametric machinery.

Sum- and min-aggregated pairwise diversity, the recursive max-min
diversity of collections (exponential, capped), and ultrametric trees
where that recursion collapses to a subtree-weight sum and embeds
exactly into a volume assignment.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from .errors import InputError, LimitExceededError, LoadError, UniverseError
from .relcore import Fact
from .volume import (VolumeAssignment, WeightedMeasure, json_fraction, json_label, json_list,
                     read_json)

WEITZMAN_CAP = 15


def hamming(a: Fact, b: Fact) -> int:
    """Number of positions where two same-shape facts disagree."""
    if a.relation != b.relation or a.arity != b.arity:
        raise InputError(f"hamming distance needs same-shape facts, got {a!r} and {b!r}")
    return sum(1 for x, y in zip(a.values, b.values) if x != y)


@dataclass(frozen=True)
class HammingDistance:
    def d(self, a: Fact, b: Fact) -> int:
        return hamming(a, b)


@dataclass(frozen=True)
class ExplicitMatrixDistance:
    """Symmetric distance matrix over named elements."""

    elements: tuple[str, ...]
    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise InputError("matrix element names must be distinct")
        if len(self.matrix) != n or any(len(row) != n for row in self.matrix):
            raise InputError("distance matrix must be square over its header")
        for i in range(n):
            if self.matrix[i][i] != 0:
                raise InputError(f"d({self.elements[i]},{self.elements[i]}) must be 0")
            for j in range(n):
                if self.matrix[i][j] < 0:
                    raise InputError("distances must be non-negative")
                if self.matrix[i][j] != self.matrix[j][i]:
                    raise InputError(
                        f"matrix is not symmetric at ({self.elements[i]},{self.elements[j]})")

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise UniverseError(f"{name!r} is not named in the distance matrix") from None

    def d(self, a: str, b: str) -> Fraction:
        return self.matrix[self.index(a)][self.index(b)]

    @classmethod
    def from_csv(cls, path) -> "ExplicitMatrixDistance":
        path = Path(path)
        if not path.is_file():
            raise LoadError(f"missing distance matrix file {path}")
        with path.open(newline="", encoding="utf-8") as handle:
            rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
        if not rows:
            raise LoadError(f"{path}: empty distance matrix")
        names = tuple(c.strip() for c in rows[0])
        body = rows[1:]
        if len(body) != len(names):
            raise LoadError(f"{path}: expected {len(names)} data rows, got {len(body)}")
        matrix = []
        for lineno, row in enumerate(body, start=2):
            if len(row) != len(names):
                raise LoadError(f"{path}, line {lineno}: expected {len(names)} values")
            try:
                matrix.append(tuple(Fraction(c.strip()) for c in row))
            except (ValueError, ZeroDivisionError) as exc:
                raise LoadError(f"{path}, line {lineno}: bad number ({exc})") from exc
        try:
            return cls(names, tuple(matrix))
        except InputError as exc:
            raise LoadError(f"{path}: {exc}") from exc


def _element_order(s: Iterable) -> list:
    items = list(set(s))
    try:
        return sorted(items)
    except TypeError:
        return sorted(items, key=repr)


def delta_sum(s: Iterable, dist) -> Fraction:
    """Sum of distances over ordered pairs (both directions; 0 if |S| <= 1)."""
    items = _element_order(s)
    if len(items) <= 1:
        return Fraction(0)
    total = Fraction(0)
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            total += 2 * dist.d(a, b)
    return total


def delta_min(s: Iterable, dist) -> Fraction:
    """Minimum distance over distinct pairs; 0 if |S| <= 1."""
    items = _element_order(s)
    if len(items) <= 1:
        return Fraction(0)
    best = None
    for i, a in enumerate(items):
        for b in items[i + 1:]:
            d = dist.d(a, b)
            if best is None or d < best:
                best = d
    return best


def weitzman(s: Iterable, dist, cap: int = WEITZMAN_CAP):
    """Recursive diversity of a collection.

    delta({a}) = 0;  delta(S) = max over a of delta(S-a) + d(a, S-a),
    with d(a, T) the distance from a to its nearest neighbour in T.
    The recursion visits every subset, so set size is capped: the memo
    table alone is 2^|S| entries.
    """
    items = _element_order(s)
    n = len(items)
    if n <= 1:
        return Fraction(0)
    if n > cap:
        raise LimitExceededError(
            f"recursive diversity over {n} elements needs 2^{n} subset values; "
            f"the cap is {cap}")
    d = [[dist.d(a, b) for b in items] for a in items]
    memo: dict[int, Fraction] = {}

    def solve(mask: int):
        if mask in memo:
            return memo[mask]
        if mask & (mask - 1) == 0:
            memo[mask] = Fraction(0)
            return memo[mask]
        best = None
        for i in range(n):
            bit = 1 << i
            if not mask & bit:
                continue
            rest = mask ^ bit
            nearest = min(d[i][j] for j in range(n) if rest & (1 << j))
            cand = solve(rest) + nearest
            if best is None or cand > best:
                best = cand
        memo[mask] = best
        return best

    return solve((1 << n) - 1)


# ---------------------------------------------------------------------------
# Ultrametric trees


@dataclass(frozen=True)
class UltraNode:
    edge_length: Fraction
    label: str | None = None
    children: tuple["UltraNode", ...] = ()

    def __post_init__(self):
        if self.edge_length < 0:
            raise InputError("edge lengths must be non-negative")
        if self.children and self.label is not None:
            raise InputError("internal tree nodes cannot carry leaf labels")
        if not self.children and self.label is None:
            raise InputError("leaves must carry labels")


class UltrametricTree:
    """Rooted tree with equal root-to-leaf path length (the radius).

    The induced distance between two leaves is the path length from
    either of them up to their lowest common ancestor, which satisfies
    the strong triangle inequality by construction.
    """

    def __init__(self, root: UltraNode):
        self.root = root
        self._paths: dict[str, tuple[int, ...]] = {}
        self._edge_lengths: dict[int, Fraction] = {}
        depths: dict[str, Fraction] = {}
        counter = itertools.count()

        def walk(node: UltraNode, path: tuple[int, ...], depth: Fraction):
            if not node.children:
                if node.label in self._paths:
                    raise InputError(f"duplicate leaf label {node.label!r}")
                self._paths[node.label] = path
                depths[node.label] = depth
                return
            for child in node.children:
                edge = next(counter)
                self._edge_lengths[edge] = child.edge_length
                walk(child, path + (edge,), depth + child.edge_length)

        walk(root, (), Fraction(0))
        if not self._paths:
            raise InputError("ultrametric tree has no leaves")
        radii = set(depths.values())
        if len(radii) > 1:
            lo, hi = min(radii), max(radii)
            raise InputError(
                f"root-to-leaf path lengths differ ({lo} vs {hi}); not an ultrametric tree")
        self.radius: Fraction = radii.pop()

    def leaves(self) -> tuple[str, ...]:
        return tuple(sorted(self._paths))

    def path_edges(self, label: str) -> tuple[int, ...]:
        try:
            return self._paths[label]
        except KeyError:
            raise UniverseError(f"{label!r} is not a leaf of the tree") from None

    def edge_length(self, edge: int) -> Fraction:
        return self._edge_lengths[edge]

    def distance(self, a: str, b: str) -> Fraction:
        """Path length from either leaf to the lowest common ancestor."""
        pa, pb = self.path_edges(a), self.path_edges(b)
        if a == b:
            return Fraction(0)
        shared = Fraction(0)
        for ea, eb in zip(pa, pb):
            if ea != eb:
                break
            shared += self._edge_lengths[ea]
        return self.radius - shared

    @classmethod
    def from_json(cls, path) -> "UltrametricTree":
        """Read nodes `{"edge_length": l, "children": [...]}` and leaves
        `{"edge_length": l, "label": x}`.

        Anything malformed is a LoadError that names the file.
        """
        path = Path(path)
        data = read_json(path, "tree")

        def build(obj) -> UltraNode:
            if not isinstance(obj, dict):
                raise InputError("tree nodes must be JSON objects")
            length = json_fraction(obj.get("edge_length", Fraction(0)), "edge lengths")
            if "children" in obj:
                kids = tuple(build(c) for c in json_list(obj["children"], "'children'"))
                return UltraNode(length, None, kids)
            if "label" not in obj:
                raise InputError("tree leaves need a 'label'")
            return UltraNode(length, json_label(obj["label"]), ())

        try:
            return cls(build(data))
        except InputError as exc:
            raise LoadError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class TreeLeafDistance:
    tree: UltrametricTree

    def d(self, a: str, b: str) -> Fraction:
        return self.tree.distance(a, b)


def weitzman_ultrametric(s: Iterable, tree: UltrametricTree) -> Fraction:
    """Linear-time recursive diversity on ultrametric trees.

    Equals the total edge weight of the smallest subtree spanning the
    root and the chosen leaves, minus the radius.
    """
    labels = sorted(set(s))
    if not labels:
        return Fraction(0)
    edges: set[int] = set()
    for label in labels:
        edges.update(tree.path_edges(label))
    total = sum((tree.edge_length(e) for e in edges), Fraction(0))
    return total - tree.radius


def ultrametric_to_volume(tree: UltrametricTree) -> VolumeAssignment:
    """Volume assignment over tree edges reproducing tree diversity.

    A leaf's ball is its root path; edges weigh their lengths.  For any
    non-empty leaf set the union measure equals the recursive diversity
    plus the radius.
    """
    weights = {e: length for e, length in tree._edge_lengths.items()}
    return VolumeAssignment(
        "ultrametric",
        lambda label: frozenset(tree.path_edges(label)),
        WeightedMeasure(weights, Fraction(0)),
        universe=frozenset(tree.leaves()))


@dataclass(frozen=True)
class UltrametricViolation:
    """Witness triple with d(a, c) > max(d(a, b), d(b, c))."""

    a: str
    b: str
    c: str
    d_ac: Fraction
    d_ab: Fraction
    d_bc: Fraction


def _first_violation(dist: ExplicitMatrixDistance) -> UltrametricViolation | None:
    names = sorted(dist.elements)
    for a in names:
        for b in names:
            if b == a:
                continue
            for c in names:
                if c == a or c == b:
                    continue
                d_ac, d_ab, d_bc = dist.d(a, c), dist.d(a, b), dist.d(b, c)
                if d_ac > max(d_ab, d_bc):
                    return UltrametricViolation(a, b, c, d_ac, d_ab, d_bc)
    return None


def ultrametric_tree_from_matrix(dist: ExplicitMatrixDistance):
    """Reconstruct the tree realizing an ultrametric, or report a violation.

    Single-linkage agglomeration: repeatedly merge the closest pair of
    clusters at height equal to their distance.  The result is verified
    against the input entry by entry; any mismatch means the input was
    not ultrametric, and the lexicographically first violating ordered
    triple is returned instead of a tree.
    """
    names = sorted(dist.elements)
    if len(names) == 1:
        return UltrametricTree(UltraNode(Fraction(0), names[0], ()))

    clusters: list[tuple[frozenset, UltraNode, Fraction]] = [
        (frozenset({n}), UltraNode(Fraction(0), n, ()), Fraction(0)) for n in names]

    def link(c1: frozenset, c2: frozenset) -> Fraction:
        return min(dist.d(a, b) for a in sorted(c1) for b in sorted(c2))

    consistent = True
    while len(clusters) > 1 and consistent:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = link(clusters[i][0], clusters[j][0])
                tag = (d, min(clusters[i][0] | clusters[j][0]))
                if best is None or tag < best[0]:
                    best = (tag, i, j)
        (d, _), i, j = best
        (m1, n1, h1), (m2, n2, h2) = clusters[i], clusters[j]
        if d < h1 or d < h2:
            consistent = False
            break
        merged = UltraNode(Fraction(0), None, (
            UltraNode(d - h1, n1.label, n1.children),
            UltraNode(d - h2, n2.label, n2.children),
        ))
        clusters = [c for k, c in enumerate(clusters) if k not in (i, j)]
        clusters.append((m1 | m2, merged, d))

    if consistent:
        tree = UltrametricTree(clusters[0][1])
        ok = all(tree.distance(a, b) == dist.d(a, b)
                 for i, a in enumerate(names) for b in names[i + 1:])
        if ok:
            return tree
    witness = _first_violation(dist)
    if witness is None:  # pragma: no cover - single linkage is exact on ultrametrics
        raise AssertionError("reconstruction failed without a triangle violation")
    return witness
