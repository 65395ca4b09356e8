"""The edge-label tables that stallings.path_image and edge_images read,
built from a label(v, x) callable for the tests that state labels that
way."""


def label_table(graph, label):
    """labels[ch][v] from label(v, x), the letters of the x-edge out of v:
    a lowercase letter reads label(v, x) on the out-edge, an uppercase one
    the inverse of label(s, x) on the x-edge from s into v, and a vertex
    with no such edge gets ""."""
    labels = {}
    for x in range(graph.k):
        ch = "abcdefghijklmnopqrstuvwxyz"[x]
        labels[ch] = [
            label(v, x) if graph.fwd[x][v] != -1 else "" for v in range(graph.m)
        ]
        labels[ch.upper()] = [
            label(s, x)[::-1].swapcase() if s != -1 else "" for s in graph.bwd[x]
        ]
    return labels
