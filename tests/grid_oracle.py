"""Grid adjacency by row and column arithmetic, for oracles that walk a grid."""


def grid_neighbors(net, cell: int) -> list[int]:
    """The cells one link from `cell`: up, down, left, right."""
    r, c = divmod(cell, net.cols)
    out = []
    if r > 0:
        out.append(cell - net.cols)
    if r < net.rows - 1:
        out.append(cell + net.cols)
    if c > 0:
        out.append(cell - 1)
    if c < net.cols - 1:
        out.append(cell + 1)
    return out
