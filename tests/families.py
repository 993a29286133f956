"""Program families that several test modules share."""

from dlplab.gen import GenConfig, gen_program
from dlplab.parser import parse_program


def cyclic(n):
    """x_i | x_{i+1} :- not x_{i+2}, indices mod n, with the indices
    zero-padded to two digits so that the atoms sort in index order."""
    return parse_program("".join(
        f"x{i:02d} | x{(i + 1) % n:02d} :- not x{(i + 2) % n:02d}.\n"
        for i in range(n)))


def golden_programs():
    """The golden set of ``tests/test_golden.py``: the cyclic family for
    n=3..12 and 200 seeded programs of three generator configurations."""
    out = [cyclic(n) for n in range(3, 13)]
    out += [gen_program(GenConfig(seed=s)) for s in range(100)]
    out += [gen_program(GenConfig(atoms=6, rules=8, seed=s)) for s in range(50)]
    out += [gen_program(GenConfig(atoms=3, rules=3, max_head=3, seed=s))
            for s in range(50)]
    return out
