"""PQ-tree test for the consecutive ones property.

A PQ-tree over columns 0..m-1 represents a family of column orderings. P nodes
permute their children freely; Q nodes fix the child order up to reversal;
leaves are columns. Reducing the tree by a column set S restricts the
represented orderings to those placing S consecutively; a matrix has the
consecutive ones property iff the tree survives reduction by every row.

This is the classic template scheme (leaf / P / Q templates, with the P and
Q cases split by position relative to the pertinent root), driven by Booth
and Lueker's bubble phase (JCSS 13, 1976). Every node knows its parent and
the tree knows the leaf of each column. A reduction walks up from the row's
leaves until the walks have merged into one, collecting at each node the
children with row leaves below (its pertinent children). It then labels the
nodes bottom-up, each as soon as all its pertinent children are labelled,
and applies the node's template to those children alone; the first node
whose subtree holds the whole row is the pertinent root. A reduction thus
costs its pertinent subtree plus one index scan of each touched child list
(to find the pertinent children's positions and rebuild the list); a
non-root Q node needs no scan, since its pertinent span must reach an end.
Untouched subtrees are never visited, and only the touched nodes have their
per-reduction fields reset.

A row whose leaves all have one parent skips all of that: the parent is
the pertinent root and the leaves its full pertinent children, so its
root template applies at once, for one index scan plus the row. More than
half of the rows of an order-preserving pooled clique matrix are such
rows, most of them a run of one Q node's children, which changes nothing.

The cost is bound by the input, not by the tree: c1p_order takes about
0.8 s on the path matrix {c, c+1} of 10,000 columns. The nested rows
{0..i} stay slow because the input is large: at 3,000 columns they hold
4.5 M entries, the templates grow a chain of full P nodes, and each
pertinent subtree has about |S| nodes, 5 s in all (Python 3.11.7, on a
shared 2-core machine).
Every walk runs on an explicit list, never by recursion: nested rows make
the tree as deep as the matrix is wide.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .model import InternalError

EMPTY, FULL, PARTIAL = 0, 1, 2
_FAIL = -1

# Below this many pertinent children a node finds their positions with one
# list.index each; from it on, with one Python pass over its labels. Each
# list.index and the pass cost up to the child list's length, in C steps
# against Python steps, so the break-even is a count of pertinent children,
# not a share of the node. With list.index alone the nested rows {0..i} in
# shrinking order go cubic (1,500 columns: 6.9-7.2 s against 0.26 s); with
# the pass alone the path matrix of 10,000 columns takes 1.5-1.8 s against
# 0.7-0.9 s (Python 3.11.7, shared 2-core machine).
_FEW = 8


class _Node:
    __slots__ = ("kind", "children", "col", "parent", "count", "labelled", "label", "pert")

    def __init__(self, kind: str, children: list["_Node"] | None = None, col: int = -1):
        self.kind = kind  # 'L' leaf, 'P', 'Q'
        self.children = children if children is not None else []
        self.col = col
        self.parent: Optional[_Node] = None
        if children:  # not for a leaf
            for ch in children:
                ch.parent = self
        # Per-reduction fields, back at these values between reductions.
        self.count = 0  # row leaves below
        self.labelled = 0  # pertinent children labelled so far
        self.label = EMPTY
        self.pert: Optional[list[_Node]] = None  # pertinent children, unordered


def _group(nodes: list[_Node]) -> _Node:
    """A single node standing for `nodes` kept consecutive: itself if alone,
    else a fresh P node."""
    return nodes[0] if len(nodes) == 1 else _Node("P", nodes)


def _adopt(node: _Node, children: Iterable[_Node]) -> None:
    for ch in children:
        ch.parent = node


class PQTree:
    """PQ-tree over a fixed column universe, supporting successive reductions."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.cols = frozenset(range(ncols))
        self.leaves = [_Node("L", col=c) for c in range(ncols)]
        if ncols == 0:
            self.root: Optional[_Node] = None
        elif ncols == 1:
            self.root = self.leaves[0]
        else:
            self.root = _Node("P", list(self.leaves))

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
        # a value equal to a column, such as 1.0, is that column
        if not S <= self.cols:
            raise ValueError(f"row {sorted(S)} not within 0..{self.ncols - 1}")
        if len(S) <= 1 or len(S) == self.ncols:
            return True
        leaves = [self.leaves[int(c)] for c in S]
        parent = leaves[0].parent
        if all(leaf.parent is parent for leaf in leaves):
            return self._reduce_siblings(parent, leaves, S)
        touched = self._bubble(leaves)
        try:
            labelled = self._label(leaves, len(S))
            if labelled is None:
                return False
            self._splice_single(labelled)
            return True
        finally:
            for node in touched:
                node.count = node.labelled = 0
                node.label = EMPTY
                node.pert = None

    @staticmethod
    def _reduce_siblings(node: _Node, leaves: list[_Node], S: frozenset[int]) -> bool:
        """The root template of a pertinent root whose pertinent children
        are the row's leaves, all of them full: no bubble, no labels. A Q
        node succeeds only if the leaves are already a run of its children,
        and is left as it is; a P node holding more than the row moves the
        leaves, in their order, into one new P child."""
        children = node.children
        k = len(leaves)
        if node.kind == "Q":
            first = last = children.index(leaves[0])
            while first > 0 and children[first - 1].col in S:
                first -= 1
            while last + 1 < len(children) and children[last + 1].col in S:
                last += 1
            return last - first + 1 == k
        if len(children) == k:
            return True
        if k < _FEW:
            pos = sorted([children.index(leaf) for leaf in leaves])
        else:
            pos = [i for i, ch in enumerate(children) if ch.col in S]
        group = _Node("P", [children[i] for i in pos])
        group.parent = node
        for i in reversed(pos):
            del children[i]
        children.append(group)
        return True

    @staticmethod
    def _bubble(leaves: list[_Node]) -> list[_Node]:
        """Walk up from the row's leaves, breadth first, appending each node
        to its parent's pertinent children, until one walk is left: a node
        whose subtree holds every leaf of the row. A walk that meets a node
        already reached ends there. A walk above the pertinent root takes at
        most as many steps as the walks below it, since the queue serves
        them in turn. Returns the leaves and every node reached: the nodes
        whose per-reduction fields the reduction sets."""
        queue = list(leaves)
        touched = list(leaves)
        walks = len(queue)
        i = 0
        while walks > 1:
            node = queue[i]
            i += 1
            parent = node.parent
            if parent is None:
                queue.append(node)  # the tree root waits for the other walks
            elif parent.pert is None:
                parent.pert = [node]
                touched.append(parent)
                queue.append(parent)
            else:
                parent.pert.append(node)
                walks -= 1
        return touched

    def _label(self, leaves: list[_Node], total: int) -> Optional[list[_Node]]:
        """Label the pertinent subtree bottom-up, applying each node's
        template once all its pertinent children are labelled. The first
        node with `total` row leaves below is the pertinent root, and the
        last. Returns the internal nodes labelled, children before parents,
        or None at the first template that fails."""
        for leaf in leaves:
            leaf.count = 1
            leaf.label = FULL
        ready = list(leaves)
        done: list[_Node] = []
        for node in ready:
            if node.kind != "L":
                is_root = node.count == total
                pert = node.pert
                if len(pert) == len(node.children) and all(ch.label == FULL for ch in pert):
                    lab = FULL
                elif node.kind == "P":
                    lab = self._apply_p(node, is_root)
                else:
                    lab = self._apply_q(node, is_root)
                if lab == _FAIL:
                    return None
                node.label = lab
                done.append(node)
                if is_root:
                    return done
            parent = node.parent
            parent.count += node.count
            parent.labelled += 1
            if parent.labelled == len(parent.pert):
                ready.append(parent)
        raise InternalError("PQ-tree reduction found no pertinent root")

    @staticmethod
    def _positions(node: _Node) -> list[int]:
        """Ascending positions of node's pertinent children in its child list."""
        children = node.children
        if len(node.pert) < _FEW:
            return sorted([children.index(ch) for ch in node.pert])
        return [i for i, ch in enumerate(children) if ch.label]

    # A PARTIAL child is always a Q node whose children run empty-side to
    # full-side, left to right. The P templates build and consume that shape.

    def _apply_p(self, node: _Node, is_root: bool) -> int:
        children = node.children
        pos = self._positions(node)
        pert = [children[i] for i in pos]
        fulls = [c for c in pert if c.label == FULL]
        partials = [c for c in pert if c.label == PARTIAL]
        if len(partials) > (2 if is_root else 1):
            return _FAIL
        empties = children  # in place: the child list less the pertinent children
        for i in reversed(pos):
            del empties[i]

        if not partials:
            if is_root:
                # Group the full children so they stay together.
                group = _group(fulls)
                group.parent = node
                empties.append(group)
                return PARTIAL
            # Become a partial Q: empty block then full block.
            node.kind = "Q"
            node.children = [_group(empties), _group(fulls)]
            _adopt(node, node.children)
            return PARTIAL

        if len(partials) == 1:
            q = partials[0]
            if is_root:
                if fulls:
                    group = _group(fulls)
                    group.parent = q
                    q.children.append(group)
                empties.append(q)
                return PARTIAL
            node.kind = "Q"
            pre = [_group(empties)] if empties else []
            post = [_group(fulls)] if fulls else []
            node.children = pre + q.children + post
            _adopt(node, node.children)
            return PARTIAL

        q1, q2 = partials
        merged = list(q1.children)
        if fulls:
            merged.append(_group(fulls))
        merged.extend(reversed(q2.children))
        nq = _Node("Q", merged)
        nq.parent = node
        empties.append(nq)
        return PARTIAL

    def _apply_q(self, node: _Node, is_root: bool) -> int:
        """The Q templates on the span from the first to the last pertinent
        child, which must hold no empty child and a partial child only at an
        end. At the pertinent root a partial child at either end is spliced
        in with its full side inward. Elsewhere the span must reach one end
        of the node, a partial child sits at the span's inner end, and the
        node is reversed if needed so the full side ends on the right."""
        children = node.children
        k = len(node.pert)
        if is_root:
            pos = self._positions(node)
            first, last = pos[0], pos[-1]
        elif children[-1].label:
            first, last = len(children) - k, len(children) - 1
        elif children[0].label:
            first, last = 0, k - 1
        else:
            return _FAIL
        a, b = children[first], children[last]
        if last - first + 1 != k or not a.label or not b.label:
            return _FAIL
        if not all(children[i].label == FULL for i in range(first + 1, last)):
            return _FAIL
        if is_root:
            span = a.children if a.label == PARTIAL else [a]
            span = span + children[first + 1 : last]
            if last != first:
                span += reversed(b.children) if b.label == PARTIAL else [b]
            children[first : last + 1] = span
            _adopt(node, span)
            return PARTIAL

        if last == len(children) - 1 and (first == last or b.label == FULL):
            if a.label == PARTIAL:
                children[first : first + 1] = a.children
                _adopt(node, a.children)
            return PARTIAL
        if first == 0 and (first == last or a.label == FULL):
            if b.label == PARTIAL:
                children[last : last + 1] = reversed(b.children)
                _adopt(node, b.children)
            children.reverse()
            return PARTIAL
        return _FAIL

    def _splice_single(self, labelled: list[_Node]) -> None:
        """Collapse internal nodes left with a single child, children before
        parents. Only the nodes a reduction labelled can be left so."""
        for node in labelled:
            if len(node.children) != 1:
                continue
            only = node.children[0]
            parent = node.parent
            only.parent = parent
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
