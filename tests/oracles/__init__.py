"""Frozen seed oracles, kept with the tests and nowhere else.

* :mod:`tests.oracles.reference_simulator` — the seed discrete-event
  engine (``ReferenceSimulator``);
* :mod:`tests.oracles.reference_model` — the seed Equation-(1) solvers;
* :mod:`tests.oracles.reference_policy` — the seed's uncached Paldia
  policy: the row-by-row Algorithm 1 scan and per-call solves;
* :mod:`tests.oracles.reference_metrics` — the seed completion ledger:
  one ``BatchRecord`` per batch and Python loops for every summary.
* :mod:`tests.oracles.reference_telemetry` — the eager telemetry sinks:
  the per-observation latency histogram, the per-reader SLO window pass
  and the one-probe-per-column node reads.

The production tree has one policy code path; the golden suites
(``tests/simulator/test_golden_*.py``,
``tests/simulator/test_metrics_oracle.py``) and the engine benchmark hold it
to bit identity and speed against these.  Nothing under ``src/`` may
import this package (``tests/test_layering.py``).  Do not optimise it.
"""
