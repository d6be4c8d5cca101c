"""Span tracer that wraps spdekit's functions from outside the package.

The modules bind each other's functions with ``from ... import``, so a call
from ``cli`` to ``simulate`` goes through ``cli.simulate``, not
``integrators.simulate``.  :func:`install` therefore wraps every import site
it times.  Each wrapped call is a span owned by one layer (module); a layer's
self time is the time of its spans minus the time of the spans they enclose,
so nested spans of one layer are never counted twice.  A binding that a
later version of spdekit no longer has is skipped, and its counts read 0.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import time
from collections import defaultdict

LAYERS = ("cli", "verify", "burgers", "integrators", "models", "noise", "spectral")

# config parsing and the build_* functions, timed as one group
CLI_CONFIG = ("load_config", "build_grid", "build_noise", "build_model", "build_scheme",
              "build_initial_field")


class Tracer:
    def __init__(self):
        self._open: list[list[float]] = []  # enclosed-span time of each open span
        self._depth = defaultdict(int)
        self.self_s = defaultdict(float)  # per layer
        self.group_s = defaultdict(float)  # per group, outermost spans only
        self.calls = defaultdict(int)  # per group
        self.counts = defaultdict(float)

    def call(self, layer, group, fn, args, kwargs):
        enclosed = [0.0]
        self._open.append(enclosed)
        self._depth[group] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span = time.perf_counter() - t0
            self._open.pop()
            self._depth[group] -= 1
            if self._depth[group] == 0:
                self.group_s[group] += span
            self.self_s[layer] += span - enclosed[0]
            if self._open:
                self._open[-1][0] += span
            self.calls[group] += 1

    def wrap(self, owner, attr, layer, group=None, after=None):
        """Replace ``owner.attr`` by a span of ``layer``; ``after`` sees each result."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        group = group or f"{layer}.{attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(layer, group, fn, args, kwargs)
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "group_s": dict(self.group_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


def _count_csv(counts, args, kwargs, result):
    path, _, rows = args[:3]
    counts["csv_rows"] += len(rows)
    counts["csv_bytes"] += os.path.getsize(path)


def _count_path(counts, args, kwargs, result):
    from spdekit import TransportHeat

    model = args[0] if args else kwargs["model"]
    draws = result.draws
    counts["steps"] += result.n_steps
    counts["state_bytes"] += result.states.nbytes + draws.nbytes
    counts["channels_drawn"] += draws.size
    if isinstance(model, TransportHeat):
        counts["channels_used"] += result.n_steps * len(model.sigma_seq)
    else:
        counts["channels_used"] += draws.size


def _count_mc_streams(counts, args, kwargs, result):
    counts["mc_streams"] += result.shape[0]


def _count_draws(counts, args, kwargs, result):
    counts["draw_values"] += result.size


def _count_picard(counts, args, kwargs, result):
    iters = result[1]
    counts["picard_sweeps"] += sum(iters) + len(iters)  # one residual sweep per window
    counts["picard_iters_max"] = max(counts["picard_iters_max"], max(iters, default=0))


def _fft_counter(inverse):
    def count(counts, args, kwargs, result):
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        if n is None:
            n = result.shape[-1] if inverse else args[0].shape[-1]
        batch = result.size // result.shape[-1] if result.shape[-1] else 0
        counts["fft_calls"] += 1
        counts["fft_points"] += n * batch
        counts["fft_flops"] += 5.0 * n * math.log2(n) * batch if n > 1 else 0.0

    return count


def install(tracer: Tracer) -> None:
    """Wrap the import sites of every layer of spdekit."""
    import numpy
    from spdekit import burgers, cli, integrators, noise, spectral, verify

    for name in CLI_CONFIG:
        tracer.wrap(cli, name, "cli", "cli.config")
    tracer.wrap(cli, "write_csv", "cli", "cli.csv_write", after=_count_csv)

    for site in (cli, verify, burgers):
        tracer.wrap(site, "simulate", "integrators", "integrators.simulate", after=_count_path)
    tracer.wrap(integrators, "drift", "models", "models.drift")
    tracer.wrap(integrators, "diffusion_apply", "models", "models.diffusion_apply")

    for site in (integrators, noise, verify):
        tracer.wrap(site, "pack_draws", "noise", "noise.pack_draws")
    tracer.wrap(integrators, "increment_from_scaled", "noise")
    tracer.wrap(noise.NoiseSampler, "scaled_block", "noise")
    tracer.wrap(noise.NoiseSampler, "draws_block", "noise", after=_count_draws)

    tracer.wrap(spectral.SpectralField, "__post_init__", "spectral", "spectral.field")
    tracer.wrap(numpy.fft, "rfft", "spectral", "spectral.fft", after=_fft_counter(False))
    tracer.wrap(numpy.fft, "irfft", "spectral", "spectral.fft", after=_fft_counter(True))

    for name in verify.__all__:
        if name == "evaluate_pass" or not inspect.isfunction(getattr(verify, name, None)):
            continue
        after = _count_mc_streams if name == "mc_normals" else None
        tracer.wrap(verify, name, "verify", after=after)

    tracer.wrap(burgers, "solve_remainder", "burgers", after=_count_picard)
    for name in ("solve_split", "sample_linear_part", "compose", "apriori_report"):
        tracer.wrap(burgers, name, "burgers")
