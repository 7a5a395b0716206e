"""One propagation kernel for table constraints over the labels 0, 1, 2.

The package's three local-constraint systems all run on `Kernel`:

- `engine` (`propagate`, `enumerate_completions`, `has_completion`): faces
  carry marks, and every vertex's link must read as a legal ring word;
- `distributions.dist_propagate` and `verify_lemma_L3`: vertices carry
  axes, and every interior face must stay Odd;
- `labeling.derive_edge_labels`: edges carry labels, and the six edge
  labels around a vertex alternate between two values (which makes every
  face see all three labels; that is checked on the result).

A client numbers its variables and states a problem by number: a `Plan`
takes the name-to-number dict (0, 1, ... in its order), each constraint's
variable numbers by position (None for a free position) with its `Table`,
and a search order by number.  A client reads `Kernel.label` (UNSET for a
free variable, as in a code) in its own numbering; a kernel reads given
labels by name through the dict.  A plan is read-only, so kernels may share
one (`engine` keeps one per window).  A kernel holds state:

- each constraint keeps its labels as a base-4 code (position k in bits 2k
  and 2k+1, `UNSET` = 3 for a free position), updated in place, and the
  code's per-position label bitmasks, read from its table;
- a table is one plain tuple of 4^arity entries indexed by code: per code
  some accepted word matches, the labels the matching words have at each
  position, and None for a dead code, one no accepted word matches.
  Every reader, in a kernel or not, indexes a table by code.  It is an
  exact tuple, not a subclass, since CPython (3.11 on) specializes a
  subscript only on an exact list, tuple or dict, and propagation reads
  a table at every site of every label it forces;
- propagation is a worklist (AC-3 style, after Mackworth 1977): after an
  assignment only the free variables of the constraints whose code changed
  are re-examined, read off the code's UNSET positions that have a
  variable (one list per arity), and a variable is forced when exactly one
  label is allowed at all of its sites, which a variable at three (every
  engine face) or two (every inner edge of `labeling`) reads and updates
  unrolled;
- a search node copies the labels, codes and masks once and restores them
  by copy after each branch, whose propagation makes many assignments; a
  trial probe or a query's assumptions make few, so they go on a trail and
  are undone back to a mark (trailing against copying: Schulte 1999; the
  trail after MiniSat, Een and Sorensson 2003);
- a search node is a leaf when every variable is labelled, which the
  trail's length tells, since it holds each labelled variable once; a leaf
  hands its labels over as bytes in variable order, one byte a variable
  (a tuple would hold 8 bytes a variable), and a node's branches propagate
  through one queue;
- labels are given only as assumptions on the trail (again as in MiniSat):
  construction assumes the given labels; `extends` assumes a query's,
  searches for one total labeling and undoes back to the mark, so a batch
  of queries over one problem shares its construction and its tables.

`nodes` counts search nodes, and `forced` the labels propagation forces
after assumptions and at search nodes (not in probes).

The forcing rule depends neither on how the variables are numbered nor on
the order they are examined in, so the propagated fixed point and every
completion set are the same as a full-sweep propagation would give; only
which contradiction is reported first may differ.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

UNSET = 3
# label bitmask -> its one label, -1 for none, UNSET for two or more
_FORCED = (-1, 0, 1, UNSET, 2, UNSET, UNSET, UNSET)
# what labelling position k with l takes off a code, by l and k (k < 16)
_STEPS = tuple(tuple((UNSET - l) << 2 * k for k in range(16)) for l in (0, 1, 2))


@lru_cache(maxsize=None)
def _free_positions(arity: int) -> Tuple[Tuple[int, ...], ...]:
    """Per code of the arity, its UNSET positions in order; equal position
    sets share one tuple, so an arity holds at most 2^arity of them."""
    free: Tuple[Tuple[int, ...], ...] = ((),)
    for k in range(arity):  # position k's digit is the slowest: 0, 1, 2, then UNSET
        top = {p: p + (k,) for p in set(free)}
        free = free * 3 + tuple(map(top.__getitem__, free))
    return free


def Table(arity: int, words: Iterable[Sequence[int]]) -> Tuple[Optional[Tuple[int, ...]], ...]:
    """Per-position label bitmasks of every code of one constraint, built
    from its accepted words, as one exact tuple indexed by code: each word,
    with every subset of its positions free (digits UNSET), ORs its labels,
    bit l for label l, into that code's masks, and a code no word matches
    reads None.  The table's length is 4^arity, and its last code,
    4^arity - 1, has every position free.  A reader packs a word of labels
    into its code itself."""
    bits = [0] * 4**arity
    for word in words:
        codes = [sum(l << 2 * k for k, l in enumerate(word))]
        one_hot = sum(1 << 3 * k + l for k, l in enumerate(word))
        for k in range(arity):
            codes += [c | UNSET << 2 * k for c in codes]
        for c in codes:
            bits[c] |= one_hot
    # one tuple per distinct value; no bit set: no word matches
    masks: Dict[int, Optional[Tuple[int, ...]]] = {0: None}
    for b in set(bits):
        if b not in masks:
            masks[b] = tuple(b >> 3 * k & 7 for k in range(arity))
    return tuple(map(masks.__getitem__, bits))


class Plan:
    """One problem over numbered variables: `index` maps each name to its
    number, 0, 1, ... in the dict's order, and `names` lists the names by
    number.  Each constraint is a pair: its variable numbers by position,
    each at most once, None for a free position, and its `Table`.  `order`
    is the search order by number, by default the numbering; it lists every
    variable once, since a search node is a leaf when every variable is
    labelled.  Per variable, `sites` holds its (constraint, position) pairs
    flat in one tuple, so a large window costs no object per site; `around`
    lists each constraint's variables by position, None for none; `free`
    its UNSET positions by code, and `held` the code mask (digits 3) of its
    positions that have a variable."""

    __slots__ = ("index", "names", "order", "sites", "around", "tables", "free", "held")

    def __init__(self, index: Dict[Hashable, int],
                 constraints: Iterable[Tuple[Sequence[Optional[int]], Table]],
                 order: Optional[Iterable[int]] = None):
        self.index, self.names = index, tuple(index)
        sites: List[Tuple[int, ...]] = [()] * len(index)
        around, tables, held, last = [], [], [], [-1] * len(index)
        shared: Dict[int, int] = {}  # one int object per distinct mask
        for c, (scope, table) in enumerate(constraints):
            scope = tuple(scope)
            mask = len(table) - 1  # every position free
            for k, g in enumerate(scope):
                if g is None:
                    mask -= UNSET << 2 * k
                    continue
                if last[g] == c:  # a pop visits each free position once
                    raise ValueError(f"{self.names[g]!r} twice in constraint {c}")
                last[g] = c
                sites[g] += (c, k)
            around.append(scope)
            tables.append(table)
            held.append(shared.setdefault(mask, mask))
        if order is None:  # a range: a tuple would hold one int per variable
            self.order = range(len(index))
        else:
            self.order = tuple(order)
            if len(self.order) != len(index) or set(self.order) != set(range(len(index))):
                raise ValueError("the search order must list every variable once")
        self.sites, self.around, self.tables = tuple(sites), tuple(around), tuple(tables)
        # a table of arity n holds 4^n codes
        self.free = tuple(_free_positions(len(t).bit_length() // 2) for t in tables)
        self.held = tuple(held)


class Kernel:
    """Propagation, probes and depth-first search over one plan.

    Construction assumes the given (name, label) pairs, UNSET labels
    skipped, queueing every constraint in index order.  `failure` is then
    None, or (c, None) when constraint c accepts no completion of the given
    labels, or (c, g) when constraint c left variable g without a label.
    The search assigns free variables in the plan's order.
    """

    def __init__(self, plan: Plan, given: Iterable[Tuple[Hashable, int]]):
        self.index, self.order = plan.index, plan.order
        self.sites, self.around, self.tables, self.free, self.held = (
            plan.sites, plan.around, plan.tables, plan.free, plan.held)
        self.code = [len(t) - 1 for t in plan.tables]
        self.masks: List[Optional[Tuple[int, ...]]] = [None] * len(plan.tables)
        self.label = [UNSET] * len(plan.sites)
        self.trail: List[int] = []
        self.nodes = self.forced = 0
        self.failure = self._assume(given, list(range(len(plan.tables))))

    def allowed(self, g: int) -> int:
        """Bitmask of the labels all of g's sites allow."""
        masks = self.masks
        allowed = 7
        it = iter(self.sites[g])
        for c in it:
            allowed &= masks[c][next(it)]
        return allowed

    def blame(self, g: int) -> Tuple[int, int, int]:
        """For a variable left without a label: the first of its sites'
        constraints that empties its labels, the labels its earlier sites
        allow, and the labels that constraint allows."""
        masks = self.masks
        allowed = 7
        it = iter(self.sites[g])
        for c in it:
            k = next(it)
            if not allowed & masks[c][k]:
                return c, allowed, masks[c][k]
            allowed &= masks[c][k]
        raise ValueError(f"variable {g} has labels left")

    def assign(self, g: int, l: int) -> bool:
        """Assign an allowed label and propagate; False on a contradiction,
        which leaves the state to be undone or restored."""
        queue: List[int] = []
        self._assign(g, l, queue)
        return self._fixpoint(queue) is None

    def probe(self, g: int, l: int) -> bool:
        """Whether assigning an allowed label propagates without contradiction;
        the state is left as it was."""
        mark = len(self.trail)
        ok = self.assign(g, l)
        self._undo(mark)
        return ok

    def extends(self, given: Iterable[Tuple[Hashable, int]]) -> bool:
        """Whether the given (name, label) pairs, UNSET labels skipped,
        extend to a total labeling; the state is left as it was.

        The labels are assumed on the trail, one search for a single
        labeling runs, and the trail is undone to where it stood.  A label
        that differs from one already set, or that leaves a constraint no
        accepted completion, answers False at once.
        """
        if self.failure is not None:
            return False
        mark = len(self.trail)
        ok = self._assume(given) is None and bool(self.search(stop_at=1))
        self._undo(mark)
        return ok

    def _assume(
        self, given: Iterable[Tuple[Hashable, int]], queue: Optional[List[int]] = None
    ) -> Optional[Tuple[Optional[int], Optional[int]]]:
        """Assign the given pairs and propagate from the queued constraints,
        by default those the labels touch; None, or a failure as `failure`
        reads it, or (None, g) when g's label differs from one already set.

        Every label lowers its constraints' codes before any table is read,
        so the first queued constraint left dead is the one reported.
        """
        code, label, sites, index = self.code, self.label, self.sites, self.index
        touched: List[int] = []
        for name, l in given:
            g = index[name]
            if l == UNSET or label[g] == l:
                continue
            if label[g] != UNSET:
                return None, g
            label[g] = l
            self.trail.append(g)
            it = iter(sites[g])
            for c in it:
                code[c] -= (UNSET - l) << 2 * next(it)
                touched.append(c)
        if queue is None:
            queue = touched
        masks, tables = self.masks, self.tables
        for c in queue:
            masks[c] = tables[c][code[c]]
            if masks[c] is None:
                return c, None
        assumed = len(self.trail)
        g = self._fixpoint(queue)
        self.forced += len(self.trail) - assumed
        return None if g is None else (self.blame(g)[0], g)

    def _assign(self, g: int, l: int, queue: List[int]) -> None:
        """Label g with l and queue its constraints.

        l must be allowed at g, so each constraint of g keeps an accepted
        completion and no mask becomes None.
        """
        code, masks, tables = self.code, self.masks, self.tables
        self.label[g] = l
        self.trail.append(g)
        it = iter(self.sites[g])
        for c in it:
            x = code[c] = code[c] - ((UNSET - l) << 2 * next(it))
            masks[c] = tables[c][x]
            queue.append(c)

    def _fixpoint(self, queue: List[int]) -> Optional[int]:
        """Force variables around the queued constraints until nothing moves.

        A pop visits the free positions that have a variable (`Plan.held`)
        in its constraint's code at the pop: only the visited variable is
        labelled during the pop, and a variable at two or three sites is
        assigned inline, as `_assign` would.  Returns a variable left with no
        allowed label, or None.
        """
        label, code, masks, tables = self.label, self.code, self.masks, self.tables
        sites, around, free, held, trail = self.sites, self.around, self.free, self.held, self.trail
        while queue:
            c = queue.pop()
            scope = around[c]
            for k in free[c][code[c] & held[c]]:
                g = scope[k]
                s = sites[g]
                n = len(s)
                if n == 6:
                    c0, k0, c1, k1, c2, k2 = s
                    l = _FORCED[masks[c0][k0] & masks[c1][k1] & masks[c2][k2]]
                elif n == 4:
                    c0, k0, c1, k1 = s
                    l = _FORCED[masks[c0][k0] & masks[c1][k1]]
                else:
                    l = _FORCED[self.allowed(g)]
                if l == UNSET:
                    continue
                if l < 0:
                    return g
                if n != 6 and n != 4:
                    self._assign(g, l, queue)
                    continue
                label[g] = l
                trail.append(g)
                step = _STEPS[l]
                x = code[c0] = code[c0] - step[k0]
                masks[c0] = tables[c0][x]
                x = code[c1] = code[c1] - step[k1]
                masks[c1] = tables[c1][x]
                queue += c0, c1
                if n == 6:
                    x = code[c2] = code[c2] - step[k2]
                    masks[c2] = tables[c2][x]
                    queue.append(c2)
        return None

    def _undo(self, mark: int) -> None:
        code, masks, tables, label, trail = (
            self.code, self.masks, self.tables, self.label, self.trail)
        while len(trail) > mark:
            g = trail.pop()
            l = label[g]
            label[g] = UNSET
            it = iter(self.sites[g])
            for c in it:
                x = code[c] = code[c] + ((UNSET - l) << 2 * next(it))
                masks[c] = tables[c][x]

    def search(self, stop_at: Optional[int] = None) -> List[bytes]:
        """At most stop_at total labelings, each as its label bytes in
        variable order; the state is left as it was."""
        found: List[bytes] = []
        if self.failure is None:
            self._search(0, found, stop_at)
        return found

    def _search(self, pos: int, found: List[bytes], stop_at: Optional[int]) -> None:
        self.nodes += 1
        label, trail = self.label, self.trail
        mark = len(trail)
        if mark == len(label):  # the trail holds every labelled variable once
            found.append(bytes(label))
            return
        order = self.order
        while label[order[pos]] != UNSET:  # `order` holds every variable
            pos += 1
        g = order[pos]
        allowed = self.allowed(g)
        code, masks = self.code, self.masks
        saved = label[:], code[:], masks[:]
        queue: List[int] = []
        for l in (0, 1, 2):
            if stop_at is not None and len(found) >= stop_at:
                return
            if allowed >> l & 1:
                self._assign(g, l, queue)
                ok = self._fixpoint(queue) is None
                self.forced += len(trail) - mark - 1
                if ok:
                    self._search(pos + 1, found, stop_at)
                else:  # a contradiction leaves constraints queued
                    queue.clear()
                label[:], code[:], masks[:] = saved
                del trail[mark:]
