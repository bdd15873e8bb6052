"""The paper's figure and table code that no query runs.

``src/repro`` is the engine and the library it is built from; what
only reproduces the paper's figures, tables and worked examples lives
here, beside the benches that print them:

* ``simulator`` — the calibrated cache / cost model behind the native
  (AVX, Haswell) numbers Python cannot time (Figs. 4, 6–12, Tables III
  and IV anchors);
* ``analysis`` — exact-sum oracles, the Table II error bounds and the
  report formatting;
* ``toy_rsum`` / ``softfloat`` — Figure 2's RSUM on toy float formats
  over exact rationals;
* ``rsum_simd`` — the V-lane Algorithm 3 with horizontal summation;
* ``reduction`` — linear / tree / butterfly reductions and the MIMD
  simulation of Section III;
* ``workloads`` / ``pagerank`` — the sweeps around
  :func:`repro.workloads.make_pairs` and the introduction's PageRank
  experiment.

Importable as ``paper`` with ``benchmarks/`` on ``sys.path`` (the
benchmark and test ``conftest.py`` files put it there).
"""
