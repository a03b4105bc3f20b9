"""Static analysis for the repro stack, in two layers.

**Certificates** — imported by the runtime, and importing no tooling:

* :mod:`repro.analysis.diagnostics` — the shared
  :class:`~repro.analysis.diagnostics.Diagnostic` record;
* :mod:`repro.analysis.verify` — the ``VER1xx`` IR verifier that
  :meth:`~repro.quantum.program.SweepProgram.compile`, the density engine's
  step plans and :class:`~repro.quantum.noise.NoiseModel` run fail-closed;
* :mod:`repro.analysis.equiv` — the ``VER4xx`` equivalence certificates
  behind shared-prefix tile execution, the statevector kernel classes and
  the density engine's composed layout schedule;
* :mod:`repro.analysis.cost` — the ``VER2xx`` static cost model.

**Tooling** — imported only by ``python -m repro.analysis``, the benches
and the tests: the AST contract linter (:mod:`.lint`, :mod:`.rules`), the
text/JSON report (:mod:`.report`) and the CLI (:mod:`.cli`).

This package module deliberately re-exports nothing, so importing a
certificate module never loads the tooling.  See
``docs/static_analysis.md`` for the rule catalogue and the audit that
decides which families stay.
"""
