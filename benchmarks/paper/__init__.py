"""The paper's figure and table code that no query runs.

``src/repro`` is the engine and the library it is built from; what
only reproduces the paper's figures, tables and worked examples lives
here, beside the benches that print them:

* ``simulator`` — the calibrated cache / cost model behind the native
  (AVX, Haswell) numbers Python cannot time (Figs. 4, 6–12, Tables III
  and IV anchors);
* ``analysis`` — exact-sum oracles, the Table II error bounds and the
  report formatting;
* ``state`` / ``eft`` — the scalar Algorithm 2 state (anchor
  extraction, integer carries) and its error-free transformations: the
  independent oracle the engine's vectorised ladder is tested against;
* ``repro_type`` / ``buffer`` / ``tuning`` — Section IV's
  ``repro<ScalarT,L>`` accumulator, Section V's summation buffers and
  the Equation 4 / Figure 9 tuning rules, for the §IV operators and
  Figs. 4 and 6–9;
* ``operators`` — the §IV hash / partition / sort / shared GROUP BY
  operators over pluggable accumulator specs;
* ``toy_rsum`` / ``softfloat`` — Figure 2's RSUM on toy float formats
  over exact rationals;
* ``rsum_paper`` — Algorithm 2 verbatim (running-sum extraction), the
  extraction ablation's subject and the cross-check of both the scalar
  state and the engine's ladder;
* ``rsum_simd`` — the V-lane Algorithm 3 with horizontal summation;
* ``reduction`` — linear / tree / butterfly reductions and the MIMD
  simulation of Section III;
* ``workloads`` / ``pagerank`` — the sweeps around
  :func:`repro.workloads.make_pairs` and the introduction's PageRank
  experiment.

Importable as ``paper`` with ``benchmarks/`` on ``sys.path`` (the
benchmark and test ``conftest.py`` files put it there).
"""
