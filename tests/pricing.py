"""The two costs of a graph at one input, priced by ``lgkit.complexity``
the way the pipeline prices a whole domain."""

from lgkit.complexity import column_fsums, side0_rows, side1_totals
from lgkit.indexing import input_array


def c0_at(g, z):
    """The negative cost at the input ``z``."""
    return column_fsums(side0_rows(g, input_array([z], g.n_bits)))[0]


def c1_at(g, y):
    """The positive cost at the input ``y``."""
    return side1_totals(g, [y])[2][0]
