"""Project-specific static analysis (``repro lint``).

An AST-based invariant linter for the conventions this codebase
depends on but no generic tool checks:

* **RPR1xx** — unit-suffix dimensional analysis (``_s`` vs ``_ms`` vs
  ``_bits`` mixing in arithmetic, call sites, and returns);
* **RPR2xx** — determinism (no wall clocks or global RNGs in the
  deterministic packages; seeds flow through
  ``numpy.random.Generator``/``SeedSequence``);
* **RPR3xx** — asyncio safety in the serving path (no blocking calls
  in ``async def``, no dropped tasks, no ``write()`` without
  ``drain()``);
* **RPR4xx** — kernel purity (no per-element Python loops in
  vectorized kernel modules).

Run ``python -m repro.analysis`` (stdlib-only, fast) or ``repro
lint``.  Every finding fails; ``# noqa: RPR###`` suppresses one.  See
``docs/analysis.md`` for the catalog and suppression.
"""
