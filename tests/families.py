"""Program families that several test modules share."""

from dlplab.parser import parse_program


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n, with the indices
    zero-padded to two digits so that the atoms sort in index order."""
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))
