"""Strongly connected component algorithms.

The paper's implementations detect cycles "using Nuutila et al.'s variant
of Tarjan's algorithm" (Section 5.1).  Both are provided here, iteratively
(recursive DFS overflows Python's stack on benchmark-sized graphs):

- :func:`tarjan_scc` — the classic algorithm [Tarjan 1972].
- :func:`nuutila_scc` — Nuutila & Soisalon-Soininen's improvement, which
  stacks only potential component *roots* instead of every visited node,
  saving stack traffic on graphs that are mostly acyclic (constraint graphs
  typically are, between the cycles that matter).

Both return components in **reverse topological order** of the condensation
(callees/predecessors first), which is the order the offline analyses want.
Successor functions may return any iterable of node ids and are free to
yield duplicates or self-loops.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

Successors = Callable[[int], Iterable[int]]


def tarjan_scc(nodes: Sequence[int], successors: Successors) -> List[List[int]]:
    """Tarjan's SCC algorithm, iterative.

    ``nodes`` is the universe to explore (ids need not be dense); edges are
    queried through ``successors``.  Every returned component is a non-empty
    list; singleton components are included (with or without self-loop).
    """
    index: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack: Dict[int, bool] = {}
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # Each frame: (node, iterator over successors).
        work: List[Tuple[int, Iterable[int]]] = [(root, iter(successors(root)))]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True

        while work:
            node, successor_iter = work[-1]
            advanced = False
            for succ in successor_iter:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    if index[succ] < lowlink[node]:
                        lowlink[node] = index[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                components.append(component)
    return components


def nuutila_scc(nodes: Sequence[int], successors: Successors) -> List[List[int]]:
    """Nuutila & Soisalon-Soininen's SCC variant, iterative.

    Functionally identical output to :func:`tarjan_scc`; differs in stack
    discipline — only component roots are pushed on the auxiliary stack,
    and component membership is recovered through a ``root`` pointer per
    node.  This is the variant the paper's solvers use online, where most
    of the graph is acyclic and Tarjan's full node stack is wasted work.
    """
    visit_index: Dict[int, int] = {}
    root_of: Dict[int, int] = {}
    in_component: Dict[int, bool] = {}
    pending_stack: List[int] = []
    components: List[List[int]] = []
    counter = 0

    for start in nodes:
        if start in visit_index:
            continue
        work: List[Tuple[int, Iterable[int]]] = [(start, iter(successors(start)))]
        visit_index[start] = counter
        counter += 1
        root_of[start] = start
        in_component[start] = False

        while work:
            node, successor_iter = work[-1]
            advanced = False
            for succ in successor_iter:
                if succ not in visit_index:
                    visit_index[succ] = counter
                    counter += 1
                    root_of[succ] = succ
                    in_component[succ] = False
                    work.append((succ, iter(successors(succ))))
                    advanced = True
                    break
                if not in_component[succ]:
                    if visit_index[root_of[succ]] < visit_index[root_of[node]]:
                        root_of[node] = root_of[succ]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if visit_index[root_of[node]] < visit_index[root_of[parent]]:
                    root_of[parent] = root_of[node]
            if root_of[node] == node:
                # All still-pending nodes with a later visit index belong to
                # this component (nested components were already claimed).
                component = [node]
                in_component[node] = True
                while pending_stack and visit_index[pending_stack[-1]] > visit_index[node]:
                    member = pending_stack.pop()
                    in_component[member] = True
                    component.append(member)
                components.append(component)
            else:
                # The Nuutila twist: only nodes that turned out *not* to be
                # roots are stacked, awaiting their root's completion.
                pending_stack.append(node)

    return components

