"""Walks over a recorded autograd graph, for tests of what it keeps alive."""

from geoseq.tensor import Tensor


def graph_nodes(root: Tensor) -> list:
    """Every node of the graph that ends in `root`."""
    seen, stack, nodes = set(), [root._node], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node.parents)
    return nodes


def closure_tensors(root: Tensor) -> list[Tensor]:
    """The tensors held by the backward closures of `root`'s graph.

    A closure holds a tensor when one of its cells does, directly or inside a
    tuple, list or dict; closures found in the cells (a wrapped closure, a
    helper) are searched the same way.
    """
    found = []
    for node in graph_nodes(root):
        stack, seen = [node.backward], set()
        while stack:
            fn = stack.pop()
            if id(fn) in seen:
                continue
            seen.add(id(fn))
            for cell in getattr(fn, "__closure__", None) or ():
                try:
                    value = cell.cell_contents
                except ValueError:  # a cell not yet bound
                    continue
                if isinstance(value, dict):
                    values = list(value.values())
                elif isinstance(value, (tuple, list)):
                    values = list(value)
                else:
                    values = [value]
                found += [v for v in values if isinstance(v, Tensor)]
                stack += [v for v in values if getattr(v, "__closure__", None)]
    return found
