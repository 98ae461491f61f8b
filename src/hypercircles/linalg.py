"""Exact dense linear algebra over any of the package's fields."""


def rref(matrix, field):
    """Reduced row echelon form. Returns (new_rows, pivot_column_indices)."""
    rows = [list(r) for r in matrix]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.one / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows, pivots


def kernel_basis(matrix, ncols, field):
    """Basis of the right kernel of the matrix (list of length-ncols vectors).

    Deterministic: one basis vector per free column, that free coordinate set
    to one.
    """
    rows, pivots = rref(matrix, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(v)
    return basis
