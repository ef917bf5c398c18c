"""Exact arithmetic for well-rounded ideal lattices from quadratic and
cyclotomic fields.

A planar lattice is well-rounded when its minimal vectors span the plane,
i.e. when it has at least four of them.  This package builds the lattices
attached to ideals of quadratic orders, reduces the associated binary
quadratic forms, counts minimal vectors exactly, and checks the analogous
statement for cyclotomic fields by direct enumeration.

Importing the package loads every library module; the names live in the
modules themselves (``wrlat.arith.QuadOrder``, ``wrlat.survey.run_survey``).
"""

from . import arith, cyclo, errors, families, ideals, planar, survey, svp  # noqa: F401
