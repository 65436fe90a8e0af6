"""Exact singularity invariants of analytic germs on isolated complete
intersection singularities: Milnor and Tjurina numbers, Bruce-Roberts numbers
by independent routes, and the supporting local standard-basis machinery."""

__version__ = "1.0.0"

from .ring import (DEFAULT_PRIME, BlockOrder, DegRevLex, Field, GermRing,
                   NegDegRevLex, ParseError, Polynomial, render)
from .stdbasis import (INCONCLUSIVE, INFINITE, DegreeCapExceeded,
                       StandardBasis, Vector, colength, ideal_basis,
                       mora_divide, mora_normal_form, oracle_colength,
                       staircase, standard_basis)
from .modops import (ArtinianAlgebra, InternalError, Subquotient, determinant,
                     ideal_product, intersect, jacobian_matrix, koszul_tor,
                     maximal_minors, matrix_rank, quotient_ideal, syzygies)
from .invariants import (ICIS, ChainDegenerate, Germ, LCBundle,
                         br_minus_formula, conjecture_scan, df_image, is_icis,
                         jacobian_ideal, lc_ideals, milnor_chain, milnor_icis,
                         milnor_number, section_milnor, theta_x,
                         theta_x_trivial, tjurina, tor1_dimension)
from .germfile import Germfile, GermfileError, load_germfile, parse_germfile
