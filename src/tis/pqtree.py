"""PQ-tree test for the consecutive ones property.

A PQ-tree over columns 0..m-1 represents a family of column orderings. P nodes
permute their children freely; Q nodes fix the child order up to reversal;
leaves are columns. Reducing the tree by a column set S restricts the
represented orderings to those placing S consecutively; a matrix has the
consecutive ones property iff the tree survives reduction by every row.

This is the classic template scheme (leaf / P / Q templates, with the P and
Q cases split by position relative to the pertinent root). Each reduction
walks the pertinent subtree bottom-up. There is no bubble pass: pertinent
leaf counts are recomputed over the whole tree for every row, so a reduction
costs the size of the tree rather than of the row, and c1p_order is
quadratic in the columns even when every row is small (the nested rows
{0..i} took 22.5 s at 3,000 columns, Python 3.11.7). Booth and Lueker's
bubble phase, with parent pointers, would remove that cost; ROADMAP.md lists
it as open item 2, "A PQ-tree reduce that touches only the pertinent
subtree". Every walk runs on an explicit stack or a breadth-first list,
never by recursion: nested rows make the tree as deep as the matrix is wide.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import InternalError

EMPTY, FULL, PARTIAL = 0, 1, 2
_FAIL = -1


class _Node:
    __slots__ = ("kind", "children", "col", "count")

    def __init__(self, kind: str, children: list["_Node"] | None = None, col: int = -1):
        self.kind = kind  # 'L' leaf, 'P', 'Q'
        self.children = children if children is not None else []
        self.col = col
        self.count = 0  # leaves of the current reduction's row below


def _group(nodes: list[_Node]) -> _Node:
    """A single node standing for `nodes` kept consecutive: itself if alone,
    else a fresh P node."""
    return nodes[0] if len(nodes) == 1 else _Node("P", nodes)


class PQTree:
    """PQ-tree over a fixed column universe, supporting successive reductions."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        if ncols == 0:
            self.root: Optional[_Node] = None
        elif ncols == 1:
            self.root = _Node("L", col=0)
        else:
            self.root = _Node("P", [_Node("L", col=c) for c in range(ncols)])

    # -- queries -------------------------------------------------------------

    def frontier(self) -> list[int]:
        """Left-to-right leaf order: one ordering consistent with all
        reductions applied so far."""
        order: list[int] = []
        if self.root is None:
            return order
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.kind == "L":
                order.append(node.col)
            else:
                stack.extend(reversed(node.children))
        return order

    # -- reduction -----------------------------------------------------------

    def reduce(self, row: Iterable[int]) -> bool:
        """Restrict to orderings placing `row` consecutively.

        Returns False (tree becomes invalid) when no represented ordering
        does; the tree must not be used further after a failed reduction.
        """
        S = frozenset(row)
        if not S.issubset(range(self.ncols)):
            raise ValueError(f"row {sorted(S)} not within 0..{self.ncols - 1}")
        if len(S) <= 1 or len(S) == self.ncols:
            return True

        self._count(S)

        # Descend to the pertinent root: the deepest node whose subtree
        # contains all of S.
        node, parent = self.root, None
        total = len(S)
        while True:
            carrier = [c for c in node.children if c.count == total]
            if len(carrier) == 1 and carrier[0].kind != "L":
                node, parent = carrier[0], node
            else:
                break

        ok = self._apply(node) != _FAIL
        if ok:
            self._splice_single(node, parent)
        return ok

    @staticmethod
    def _subtree(top: _Node) -> tuple[list[_Node], list[Optional[_Node]]]:
        """The nodes of top's subtree in breadth-first order (so every node
        comes after its parent), and the parent of each (None for top)."""
        nodes = [top]
        parents: list[Optional[_Node]] = [None]
        for node in nodes:
            if node.children:
                nodes += node.children
                parents += [node] * len(node.children)
        return nodes, parents

    def _count(self, S: frozenset[int]) -> None:
        """Set every node's count to the number of S-leaves below it."""
        for node in reversed(self._subtree(self.root)[0]):
            if node.kind == "L":
                node.count = 1 if node.col in S else 0
            else:
                node.count = sum([ch.count for ch in node.children])

    def _apply(self, top: _Node) -> int:
        """Label the pertinent subtree under `top` bottom-up, left to right,
        applying each node's template once its children are labelled; stop
        at the first failure. Only `top` is the pertinent root."""
        if top.kind == "L":
            return FULL if top.count else EMPTY
        stack = [(top, [], iter(top.children))]
        while True:
            node, labels, rest = stack[-1]
            for ch in rest:
                if not ch.count:
                    labels.append(EMPTY)
                elif ch.kind == "L":
                    labels.append(FULL)
                else:
                    stack.append((ch, [], iter(ch.children)))
                    break
            else:
                stack.pop()
                is_root = not stack
                if node.kind == "P":
                    lab = self._apply_p(node, labels, is_root)
                else:
                    lab = self._apply_q(node, labels, is_root)
                if lab == _FAIL or is_root:
                    return lab
                stack[-1][1].append(lab)

    # A PARTIAL child is always a Q node whose children run empty-side to
    # full-side, left to right. The P templates build and consume that shape.

    def _apply_p(self, node: _Node, labels: list[int], is_root: bool) -> int:
        empties = [c for c, l in zip(node.children, labels) if l == EMPTY]
        fulls = [c for c, l in zip(node.children, labels) if l == FULL]
        partials = [c for c, l in zip(node.children, labels) if l == PARTIAL]

        if not partials:
            if not empties:
                return FULL
            if not fulls:
                return EMPTY
            if is_root:
                # Group the full children so they stay together.
                node.children = empties + [_group(fulls)]
                return PARTIAL
            # Become a partial Q: empty block then full block.
            node.kind = "Q"
            node.children = [_group(empties), _group(fulls)]
            return PARTIAL

        if len(partials) == 1:
            q = partials[0]
            if is_root:
                if fulls:
                    q.children = q.children + [_group(fulls)]
                node.children = empties + [q]
                return PARTIAL
            node.kind = "Q"
            mid = list(q.children)
            pre = [_group(empties)] if empties else []
            post = [_group(fulls)] if fulls else []
            node.children = pre + mid + post
            return PARTIAL

        if len(partials) == 2 and is_root:
            q1, q2 = partials
            merged = list(q1.children)
            if fulls:
                merged.append(_group(fulls))
            merged.extend(reversed(q2.children))
            nq = _Node("Q", merged)
            node.children = empties + [nq]
            return PARTIAL

        return _FAIL

    def _apply_q(self, node: _Node, labels: list[int], is_root: bool) -> int:
        if all(l == EMPTY for l in labels):
            return EMPTY
        if all(l == FULL for l in labels):
            return FULL

        if is_root:
            new = self._match_root_q(node.children, labels)
            if new is None:
                return _FAIL
            node.children = new
            return PARTIAL

        for forward in (True, False):
            ch = node.children if forward else list(reversed(node.children))
            lb = labels if forward else list(reversed(labels))
            new = self._match_partial_q(ch, lb)
            if new is not None:
                node.children = new
                return PARTIAL
        return _FAIL

    @staticmethod
    def _match_partial_q(children: list[_Node], labels: list[int]) -> list[_Node] | None:
        """Match E* [P] F* (empty-to-full, left to right). A partial child's
        own children already run empty-to-full regardless of the direction the
        parent is being scanned in, so it is spliced as-is."""
        out: list[_Node] = []
        phase = 0  # 0 empties, 1 fulls
        for ch, lab in zip(children, labels):
            if lab == EMPTY:
                if phase != 0:
                    return None
                out.append(ch)
            elif lab == PARTIAL:
                if phase != 0:
                    return None
                out.extend(ch.children)
                phase = 1
            else:  # FULL
                phase = 1
                out.append(ch)
        return out

    @staticmethod
    def _match_root_q(children: list[_Node], labels: list[int]) -> list[_Node] | None:
        """Match E* [P] F* [P] E* at the pertinent root, splicing partial
        children so the full block is contiguous in the middle."""
        out: list[_Node] = []
        phase = 0  # 0 leading empties, 1 full block, 2 trailing empties
        for ch, lab in zip(children, labels):
            if lab == EMPTY:
                if phase == 1:
                    phase = 2
                out.append(ch)
            elif lab == FULL:
                if phase == 0:
                    phase = 1
                if phase == 2:
                    return None
                out.append(ch)
            else:  # PARTIAL
                if phase == 0:
                    out.extend(ch.children)  # empty side first
                    phase = 1
                elif phase == 1:
                    out.extend(reversed(ch.children))  # full side first
                    phase = 2
                else:
                    return None
        return out

    def _splice_single(self, top: _Node, top_parent: Optional[_Node]) -> None:
        """Collapse internal nodes with a single child, children before
        parents. Template bookkeeping leaves them behind only in the subtree
        of the pertinent root `top`, the only part a reduction rewrites."""
        nodes, parents = self._subtree(top)
        parents[0] = top_parent
        for node, parent in zip(reversed(nodes), reversed(parents)):
            if len(node.children) != 1:
                continue
            only = node.children[0]
            if parent is None:
                self.root = only
            else:
                parent.children[parent.children.index(node)] = only


def c1p_order(rows: Iterable[Iterable[int]], ncols: int) -> Optional[list[int]]:
    """A column ordering making every row's ones consecutive, or None.

    Rows may repeat and may be empty; columns are 0..ncols-1.
    """
    tree = PQTree(ncols)
    for row in rows:
        if not tree.reduce(row):
            return None
    order = tree.frontier()
    if sorted(order) != list(range(ncols)):
        raise InternalError("PQ-tree frontier is not a permutation of the columns")
    return order


def check_consecutive(rows: Iterable[Iterable[int]], order: list[int]) -> bool:
    """Direct scan: does `order` place every row's ones consecutively?"""
    pos = {c: i for i, c in enumerate(order)}
    for row in rows:
        ps = [pos[c] for c in row]
        if ps and max(ps) - min(ps) + 1 != len(set(ps)):
            return False
    return True
