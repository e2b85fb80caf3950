"""Experiment harnesses reproducing the paper's evaluation (§V, §VI).

Each module regenerates one table or figure:

* :mod:`repro.experiments.environment` — builders for simulated testbeds.
* :mod:`repro.experiments.latency` — Fig. 5 latency breakdown.
* :mod:`repro.experiments.scaling` — Fig. 6 strong/weak scaling.
* :mod:`repro.experiments.elasticity` — Fig. 7 multi-endpoint elasticity.
* :mod:`repro.experiments.overhead` — Table III scheduler overhead.
* :mod:`repro.experiments.case_studies` — Tables IV/V and Figs. 9–13.

Table III and Tables IV/V / Figs. 9–13 are scenario specs on the
``"paper"`` substrate (:func:`repro.scenarios.presets.paper_spec`), run by
:func:`repro.scenarios.spec.run_scenario` like every preset.  Figs. 5–7
drive :func:`~repro.experiments.environment.build_simulation` directly,
because each would need substrate settings only it uses: Fig. 5 a 2 MB/s
workstation link and its own latency model, Fig. 6 0.05 s latencies and
batches of 256, Fig. 7 a workers-per-node override, a kernel-driven sampler
and phased runs.  The package imports none of its modules, so the scenario
layer can use :mod:`~repro.experiments.environment` while the case studies
use the scenario layer.
"""
