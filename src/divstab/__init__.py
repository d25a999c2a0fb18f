"""divstab: exact divisor-stability computations on a blown-up threefold.

Submodules:

* :mod:`divstab.record`  -- ``Record``, the immutable value base of every
  record type below
* :mod:`divstab.ratmath` -- rationals, u/v polynomials, exact integration
* :mod:`divstab.lattice` -- divisor classes, intersection forms, restrictions
* :mod:`divstab.cones`   -- cone facets, effective decompositions, exact
  feasible intervals and thresholds
* :mod:`divstab.zariski` -- Zariski decompositions and (u, v) chamber charts
* :mod:`divstab.sinv`    -- the stability functionals assembled from the above
* :mod:`divstab.projgeo` -- exact projective polynomial geometry checks
* :mod:`divstab.exprs`, :mod:`divstab.scenario`, :mod:`divstab.cli`
  -- expression parser, scenario files, batch verification
"""

__version__ = "0.1.0"
