"""The degree-0 table of every n = 5 sign graph against the pairwise loop."""

from pianocat.endo import EndoAlgebra, piano_of_generator
from pianocat.generators import enumerate_limit_generators
from pianocat.homs import hom_dim, morphism_direction
from pianocat.signs import order_for_cone_blocks, sign_graph

GENERATORS = 5440


def test_table_read_off_the_algebra_matches_pairwise_loop():
    # The table of each sign graph comes from the nonzero off-diagonal
    # entries of the generator's algebra; the oracle asks hom_dim for every
    # ordered pair of distinct summands.  Items and order must agree.
    gens = enumerate_limit_generators(5)
    assert len(gens) == GENERATORS
    for g in gens:
        arcs = order_for_cone_blocks(list(g))
        graph = sign_graph(EndoAlgebra.from_arcs(arcs, 5), piano_of_generator(arcs, 5))
        expected = [
            ((j, l), morphism_direction(x, y, 0))
            for j, x in enumerate(arcs)
            for l, y in enumerate(arcs)
            if j != l and hom_dim(x, y, 0) == 1
        ]
        assert list(graph.table.items()) == expected, g.dumps()
