#!/usr/bin/env python3
"""End-to-end 1:N identification: compress -> encrypt -> protect -> search.

Every gallery subject has their own protection parameters, so the probe is
re-protected per record before scoring.  The key holder scales every
template to unit norm in the clear, so each score is one encrypted product
and one fold; scores come back to the key holder for the ranking decision.
The plaintext oracle, identify_plain, scores the same enrollees alongside.
"""
import time

from polyfhe.pipeline import (
    Pipeline,
    PipelineConfig,
    SyntheticSpec,
    build_gallery,
    enroll_split,
    gen_synthetic_dataset,
    identify_plain,
)

spec = SyntheticSpec(num_ids=15, samples_per_id=3, dim=512, class_separation=50.0,
                     attribute_correlation=0.6, seed=7)
ds = gen_synthetic_dataset(spec)
print(f"synthetic dataset: {spec.num_ids} identities x {spec.samples_per_id} samples, dim {spec.dim}")

cfg = PipelineConfig(seed=1)
pipe = Pipeline(cfg)
print(f"pipeline: compress to {cfg.compress_dim}, m={cfg.m}, overlap={cfg.overlap}, "
      f"slot capacity {cfg.slot_capacity}, depth budget {cfg.depth_budget}")

gallery, probes = build_gallery(ds, pipe)
enrollees, _ = enroll_split(ds)
params_list = [rec.params for rec in gallery]
print(f"enrolled {len(gallery)} subjects; {len(probes)} probes held out\n")

probe = probes[0]
t0 = time.time()
ranked = pipe.identify(probe, gallery)
print(f"probe {probe.subject_id}: 1:N search over {len(gallery)} records took {time.time()-t0:.2f}s")
plain_scores = dict(identify_plain(probe, enrollees, params_list, cfg.compress_dim))
for rank, (sid, score) in enumerate(ranked[:5], start=1):
    marker = "  <-- true identity" if sid == probe.subject_id else ""
    print(f"  rank {rank}: {sid} score {score:+.4f} (plaintext {plain_scores[sid]:+.4f}){marker}")
worst = max(abs(score - plain_scores[sid]) for sid, score in ranked)
print(f"largest |encrypted - plaintext| score over the gallery: {worst:.1e}")

t0 = time.time()
enc_acc = sum(pipe.identify(q, gallery)[0][0] == q.subject_id for q in probes) / len(probes)
plain_acc = sum(
    identify_plain(q, enrollees, params_list, cfg.compress_dim)[0][0] == q.subject_id for q in probes
) / len(probes)
print(f"\nrank-1 accuracy: encrypted {enc_acc:.3f} vs plaintext {plain_acc:.3f} "
      f"({time.time()-t0:.1f}s for both sweeps)")
