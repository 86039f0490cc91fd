"""N-1 security toolkit for medium-voltage grid graphs.

Three routes to the same question -- can the grid survive any single cable
failure within k switchovers? -- live side by side:

* :mod:`gridsec.classical`: exhaustive fundamental-cycle enumeration with
  load-flow validation (:mod:`gridsec.loadflow`);
* :mod:`gridsec.n1qubo` + :mod:`gridsec.anneal`: a binary-quadratic
  formulation sampled with simulated annealing;
* :mod:`gridsec.grover`: a desk-scale amplitude-amplification search with
  query accounting against the classical baseline.

Import names from these modules: the package itself exports nothing, so a
module loads only what it imports.
"""
