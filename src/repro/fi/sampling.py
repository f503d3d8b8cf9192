"""Statistical fault-injection campaigns (sampling instead of sweeping).

Exhaustive campaigns are the gold standard the paper validates against
(§V, Table I), but at realistic trace lengths practitioners sample:
inject a random subset of fault sites and report the architectural
vulnerability factor (AVF — the fraction of faults that change observable
behaviour) with a confidence interval.

This module provides two estimators over the inject-on-read population
(every bit of every dynamic live window, the paper's "Live in values"
universe):

* :func:`estimate_avf` with ``bec=None`` — plain uniform Monte-Carlo
  sampling with a Wilson score interval;
* :func:`estimate_avf` with a BEC analysis — the *same* estimator, but
  fault sites in one equivalence class epoch share their outcome (that
  is exactly what the coalescing analysis proves), so one simulator run
  is reused for every sampled member of the class.  Masked sites need no
  run at all.  The estimate is identical in distribution to uniform
  sampling while performing a fraction of the simulator runs.

The ground truth for tests and benches is :func:`exhaustive_avf`.
Both estimators and the ground truth execute their simulator runs as
one :class:`repro.fi.engine.CampaignEngine` campaign each.
"""

import math
import random
from collections import namedtuple

from repro import obs
from repro.fi.accounting import iter_bit_instances
from repro.fi.campaign import (EFFECT_MASKED, PlannedRun,
                               iter_plan_inject_on_read,
                               plan_inject_on_read)
from repro.fi.engine import CampaignEngine
from repro.fi.machine import Injection
from repro.fi.sink import CollectSink

AVFEstimate = namedtuple(
    "AVFEstimate",
    ["avf", "low", "high", "trials", "vulnerable", "simulator_runs",
     "population"])


# -- interval arithmetic ------------------------------------------------------


def inverse_normal_cdf(p):
    """Quantile function of the standard normal distribution.

    Acklam's rational approximation — relative error below 1.15e-9 over
    the whole domain, which is far tighter than any sampling noise the
    interval will carry.  Implemented here to keep the module dependency
    free (tests cross-check it against scipy).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02,
         -2.759285104469687e+02, 1.383577518672690e+02,
         -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02,
         -1.556989798598866e+02, 6.680131188771972e+01,
         -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01,
         -2.400758277161838e+00, -2.549732539343734e+00,
         4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01,
         2.445134137142996e+00, 3.754408661907416e+00)
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    if p > p_high:
        q = math.sqrt(-2 * math.log(1 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4])
                 * q + c[5]) / \
            ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4])
            * r + a[5]) * q / \
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1)


def wilson_interval(successes, trials, confidence=0.95):
    """Wilson score interval for a binomial proportion.

    Returns ``(low, high)``; well-behaved at 0 and at ``trials``
    successes, unlike the normal approximation.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = inverse_normal_cdf(0.5 + confidence / 2.0)
    phat = successes / trials
    denominator = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denominator
    spread = (z * math.sqrt(phat * (1 - phat) / trials
                            + z * z / (4 * trials * trials))
              / denominator)
    low = 0.0 if successes == 0 else max(0.0, center - spread)
    high = 1.0 if successes == trials else min(1.0, center + spread)
    # Guard against rounding pushing a bound across the point estimate.
    return (min(low, phat), max(high, phat))


# -- populations ----------------------------------------------------------------


SampledSite = namedtuple("SampledSite", ["injection", "key", "masked"])


def inject_on_read_population(function, trace, bec=None):
    """The sampling population: one :class:`SampledSite` per bit of every
    dynamic live window in *trace*.

    With *bec*, each site carries the ``(class, epoch)`` key the
    coalescing analysis proved outcome-equivalent, and statically masked
    sites are marked so the estimator can skip their simulator runs.
    Without it the sites are the runs of
    :func:`repro.fi.campaign.iter_plan_inject_on_read`, in plan order,
    each with a unique key (plain uniform sampling).
    """
    if bec is None:
        return [SampledSite(run.injection, ("site", index), False)
                for index, run in enumerate(
                    iter_plan_inject_on_read(function, trace))]
    population = []
    for instance in iter_bit_instances(function, trace, bec):
        if instance.rep == 0:
            key = ("masked",)
        else:
            key = ("class", instance.rep, instance.epoch)
        population.append(SampledSite(
            Injection(instance.cycle, instance.reg, instance.bit),
            key, instance.rep == 0))
    return population


# -- estimators ----------------------------------------------------------------


def estimate_avf(machine, function, trace, budget, seed=0, regs=None,
                 bec=None, confidence=0.95, checkpoint_interval=None):
    """Estimate the AVF of *function* by sampling *budget* fault sites.

    Samples uniformly with replacement from the inject-on-read
    population of *trace*, the golden trace of *machine* run on *regs*.
    With *bec* the outcome of each equivalence class epoch is computed
    once and reused (and masked sites are free), which cuts simulator
    runs without changing the estimator's distribution.  The first
    sampled injection of every unmasked key runs as one
    :class:`repro.fi.engine.CampaignEngine` campaign, so
    *checkpoint_interval* (snapshot resume) and a ``core="batched"``
    machine (lockstep lanes) accelerate it exactly as they do any other
    campaign; the estimate and ``simulator_runs`` never depend on them.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    population = inject_on_read_population(function, trace, bec=bec)
    if not population:
        raise ValueError("empty fault population; nothing to sample")
    rng = random.Random(seed)
    sampled = [population[rng.randrange(len(population))]
               for _ in range(budget)]
    first = {}
    for site in sampled:
        if not site.masked and site.key not in first:
            first[site.key] = site.injection
    plan = [PlannedRun(injection, None, None, None)
            for injection in first.values()]
    engine = CampaignEngine(machine, plan, regs=regs, golden=trace,
                            max_cycles=4 * trace.cycles + 1024)
    outcomes = CollectSink()
    engine.run(checkpoint_interval=checkpoint_interval, sink=outcomes)
    vulnerable_keys = {key for key, (_, effect, _, _)
                       in zip(first, outcomes.records)
                       if effect != EFFECT_MASKED}
    vulnerable = sum(1 for site in sampled if site.key in vulnerable_keys)
    simulator_runs = len(plan)
    registry = obs.metrics()
    registry.counter("sample.trials",
                     help="AVF estimator samples drawn").inc(budget)
    registry.counter("sample.simulator_runs",
                     help="Simulator runs the estimator paid for "
                          "(dedup + masked-free sites excluded)"
                     ).inc(simulator_runs)
    low, high = wilson_interval(vulnerable, budget, confidence=confidence)
    return AVFEstimate(avf=vulnerable / budget, low=low, high=high,
                       trials=budget, vulnerable=vulnerable,
                       simulator_runs=simulator_runs,
                       population=len(population))


def exhaustive_avf(machine, function, trace, regs=None):
    """Ground-truth AVF: run the full inject-on-read campaign against
    *trace*, the golden trace of *machine* run on *regs*."""
    plan = plan_inject_on_read(function, trace)
    if not plan:
        raise ValueError("empty fault population; nothing to inject")
    result = CampaignEngine(machine, plan, regs=regs, golden=trace).run()
    return result.vulnerable_runs() / len(plan)
