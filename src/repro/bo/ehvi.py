"""Expected hypervolume improvement (EHVI), estimated by Monte-Carlo integration.

This is the acquisition function at the heart of VDTuner (Eq. 4 of the
paper) and of the qEHVI baseline.  Given independent Gaussian posteriors for
the two objectives at a set of candidate points, the estimators draw
samples, compute the hypervolume the sampled outcomes would add to the
current Pareto front (vectorized via
:func:`repro.bo.pareto.hypervolume_improvement_2d` and
:func:`repro.bo.pareto.joint_hypervolume_improvement_2d`), and average — the
two-objective Monte-Carlo estimators of Daulton et al. (2020):
:func:`monte_carlo_ehvi` for single points, :func:`monte_carlo_qehvi` for
joint batches, and :func:`greedy_qehvi_scores` for the sequential-greedy
batch construction that batch mode uses.

Randomness discipline: the two *top-level entry points*
(:func:`monte_carlo_ehvi` and :func:`monte_carlo_qehvi`) fall back to a
fixed-seed generator when no ``rng`` is given, so one-shot acquisition
values are reproducible.  :func:`greedy_qehvi_scores` — which batch
construction calls once per batch slot — *requires* a caller-owned
generator: a per-call fixed-seed fallback would re-draw the exact same
Monte-Carlo noise for every slot, correlating the q-EHVI batch draws and
silently biasing greedy selection toward the noise's favourites.
"""

from __future__ import annotations

import numpy as np

from repro.bo.pareto import hypervolume_improvement_2d, joint_hypervolume_improvement_2d

__all__ = ["monte_carlo_ehvi", "monte_carlo_qehvi", "greedy_qehvi_scores"]


def monte_carlo_ehvi(
    candidate_means: np.ndarray,
    candidate_stds: np.ndarray,
    observed_objectives: np.ndarray,
    reference_point: np.ndarray,
    *,
    num_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Estimate EHVI for every candidate point.

    Parameters
    ----------
    candidate_means, candidate_stds:
        Arrays of shape ``(num_candidates, 2)`` with the posterior mean and
        standard deviation of each objective (maximization) at every
        candidate configuration.
    observed_objectives:
        Array of shape ``(num_observed, 2)`` with the objective values of all
        evaluated configurations; only its Pareto front matters.
    reference_point:
        The 2-D reference point ``r`` of Eq. 4.
    num_samples:
        Number of Monte-Carlo samples per candidate.
    rng:
        Random generator.  This is a top-level entry point, so it defaults
        to a fixed-seed generator for reproducible one-shot values; loops
        (batch construction, repeated scoring) must pass their own
        generator so successive calls draw fresh noise.

    Returns
    -------
    numpy.ndarray
        EHVI estimate per candidate, shape ``(num_candidates,)``.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    means = np.atleast_2d(np.asarray(candidate_means, dtype=float))
    stds = np.atleast_2d(np.asarray(candidate_stds, dtype=float))
    if means.shape != stds.shape or means.shape[1] != 2:
        raise ValueError("candidate means/stds must have shape (n, 2)")
    observed = np.atleast_2d(np.asarray(observed_objectives, dtype=float)) if np.size(observed_objectives) else np.empty((0, 2))
    reference = np.asarray(reference_point, dtype=float).reshape(-1)
    if reference.shape[0] != 2:
        raise ValueError("reference point must be 2-D")

    num_candidates = means.shape[0]
    if num_candidates == 0:
        return np.empty(0, dtype=float)
    num_samples = max(1, int(num_samples))

    draws = rng.normal(size=(num_samples, num_candidates, 2))
    samples = means[None, :, :] + draws * stds[None, :, :]
    flat = samples.reshape(-1, 2)
    improvements = hypervolume_improvement_2d(flat, observed, reference)
    return improvements.reshape(num_samples, num_candidates).mean(axis=0)


def greedy_qehvi_scores(
    prefix_means: np.ndarray,
    prefix_stds: np.ndarray,
    candidate_means: np.ndarray,
    candidate_stds: np.ndarray,
    observed_objectives: np.ndarray,
    reference_point: np.ndarray,
    *,
    num_samples: int = 64,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint q-EHVI of ``prefix + candidate`` for every candidate at once.

    The workhorse of sequential-greedy batch construction (Daulton et al.,
    2020): slot ``j+1`` of a batch is filled by maximizing the *joint* q-EHVI
    of the ``j`` points already chosen (the prefix) plus one candidate.
    Every Monte-Carlo sample draws outcomes for the prefix and all
    candidates, completes each candidate's batch with the shared prefix
    outcomes, and scores the joint hypervolume improvement in one vectorized
    :func:`~repro.bo.pareto.joint_hypervolume_improvement_2d` pass — so
    overlap between a candidate and the prefix is never double-counted,
    which is what steers batches toward diverse points.  With an empty
    prefix this reduces exactly to :func:`monte_carlo_ehvi`.

    Parameters
    ----------
    prefix_means, prefix_stds:
        Posterior marginals of the already-chosen batch points, shape
        ``(j, 2)`` (``j`` may be 0).
    candidate_means, candidate_stds:
        Posterior marginals of every candidate, shape ``(c, 2)``.
    observed_objectives:
        Objective values of the evaluated configurations, shape ``(n, 2)``.
    reference_point:
        The 2-D reference point of Eq. 4.
    num_samples:
        Number of joint Monte-Carlo samples.
    rng:
        Caller-owned random generator (required).  Batch construction calls
        this once per batch slot; the slots stay decorrelated only because
        each call advances the same generator instead of re-seeding — thread
        the generator from the tuner's top-level seed.

    Returns
    -------
    numpy.ndarray
        Joint q-EHVI estimate per candidate, shape ``(c,)``.
    """
    prefix_means = np.asarray(prefix_means, dtype=float).reshape(-1, 2)
    prefix_stds = np.asarray(prefix_stds, dtype=float).reshape(-1, 2)
    cand_means = np.atleast_2d(np.asarray(candidate_means, dtype=float))
    cand_stds = np.atleast_2d(np.asarray(candidate_stds, dtype=float))
    if prefix_means.shape != prefix_stds.shape:
        raise ValueError("prefix means/stds must have the same shape")
    if cand_means.shape != cand_stds.shape or cand_means.shape[1] != 2:
        raise ValueError("candidate means/stds must have shape (c, 2)")
    observed = (
        np.atleast_2d(np.asarray(observed_objectives, dtype=float))
        if np.size(observed_objectives)
        else np.empty((0, 2))
    )
    reference = np.asarray(reference_point, dtype=float).reshape(-1)
    if reference.shape[0] != 2:
        raise ValueError("reference point must be 2-D")
    num_candidates = cand_means.shape[0]
    if num_candidates == 0:
        return np.empty(0, dtype=float)
    num_samples = max(1, int(num_samples))
    prefix_size = prefix_means.shape[0]

    if prefix_size:
        prefix_draws = rng.normal(size=(num_samples, prefix_size, 2))
        prefix_samples = prefix_means[None, :, :] + prefix_draws * prefix_stds[None, :, :]
    candidate_draws = rng.normal(size=(num_samples, num_candidates, 2))
    candidate_samples = cand_means[None, :, :] + candidate_draws * cand_stds[None, :, :]

    if not prefix_size:
        flat = candidate_samples.reshape(-1, 2)
        improvements = hypervolume_improvement_2d(flat, observed, reference)
        return improvements.reshape(num_samples, num_candidates).mean(axis=0)

    # Stack (candidate, sample) pairs into one (c * s, j + 1, 2) batch array:
    # every candidate's batch shares the same prefix outcome per sample.
    prefix_block = np.broadcast_to(
        prefix_samples[None, :, :, :],
        (num_candidates, num_samples, prefix_size, 2),
    )
    candidate_block = candidate_samples.transpose(1, 0, 2)[:, :, None, :]
    batches = np.concatenate([prefix_block, candidate_block], axis=2)
    improvements = joint_hypervolume_improvement_2d(
        batches.reshape(num_candidates * num_samples, prefix_size + 1, 2),
        observed,
        reference,
    )
    return improvements.reshape(num_candidates, num_samples).mean(axis=1)


def monte_carlo_qehvi(
    batch_means: np.ndarray,
    batch_stds: np.ndarray,
    observed_objectives: np.ndarray,
    reference_point: np.ndarray,
    *,
    num_samples: int = 64,
    rng: np.random.Generator | None = None,
) -> float:
    """Estimate the *joint* q-EHVI of one candidate batch.

    This is the batch generalization of :func:`monte_carlo_ehvi` (Daulton et
    al., 2020): every Monte-Carlo sample draws an outcome for all ``q``
    candidates simultaneously and scores the hypervolume the whole batch adds
    over the current front, so overlapping candidates are not double-counted.
    :func:`greedy_qehvi_scores` (used by
    :meth:`repro.baselines.qehvi.QEHVITuner.suggest_batch`) maximizes this
    quantity greedily, one batch slot at a time.

    Parameters
    ----------
    batch_means, batch_stds:
        Arrays of shape ``(q, 2)``: the posterior marginals of each objective
        at every point of the batch.
    observed_objectives:
        Objective values of the evaluated configurations, shape ``(n, 2)``.
    reference_point:
        The 2-D reference point of Eq. 4.
    num_samples:
        Number of joint Monte-Carlo samples.
    rng:
        Random generator.  This is a top-level entry point, so it defaults
        to a fixed-seed generator for reproducible one-shot values; the
        generator is threaded through to :func:`greedy_qehvi_scores`.

    Returns
    -------
    float
        The Monte-Carlo q-EHVI estimate of the batch.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    means = np.atleast_2d(np.asarray(batch_means, dtype=float))
    stds = np.atleast_2d(np.asarray(batch_stds, dtype=float))
    if means.shape != stds.shape or means.shape[1] != 2:
        raise ValueError("batch means/stds must have shape (q, 2)")
    if means.shape[0] == 0:
        return 0.0
    scores = greedy_qehvi_scores(
        means[:-1],
        stds[:-1],
        means[-1:],
        stds[-1:],
        observed_objectives,
        reference_point,
        num_samples=num_samples,
        rng=rng,
    )
    return float(scores[0])
