//! Property-based tests for the vision substrate.

use acacia_vision::compress::Codec;
use acacia_vision::compute::Device;
use acacia_vision::db::ObjectDb;
use acacia_vision::feature::{object_features, render_view, FeatureSet, Similarity, ViewParams};
use acacia_vision::image::{camera_preview_fps, expected_features, ImageSpec, Resolution};
use acacia_vision::matcher::{match_pair, MatchOps, MatcherConfig};
use proptest::prelude::*;

/// Execution caps the exactness properties run at: none, below, at and
/// around one 8-lane block, the city's 24, and the scenario defaults.
const EXEC_CAPS: [usize; 9] = [0, 1, 2, 7, 8, 9, 24, 48, 96];

/// A camera view rendered from `nq` base features: of object `id` itself
/// (scene 0), of it among clutter (scene 1), or of a foreign object (2).
fn scene_view(id: u64, nq: usize, scene: u8, seed: u64) -> FeatureSet {
    let params = ViewParams {
        clutter: if scene == 1 { (seed % 61) as usize } else { 0 },
        ..ViewParams::default()
    };
    let object = if scene == 2 { id ^ 0x5eed_f0e1 } else { id };
    render_view(
        &object_features(object, nq),
        Similarity::from_seed(seed),
        params,
        seed,
    )
}

proptest! {
    /// Feature generation is prefix-stable: the first n features of a
    /// larger set equal the smaller set (the property pruned matching
    /// relies on).
    #[test]
    fn object_features_prefix_stable(id in any::<u64>(), n1 in 2usize..80, extra in 1usize..80) {
        let small = object_features(id, n1);
        let large = object_features(id, n1 + extra);
        prop_assert_eq!(&small.features[..], &large.features[..n1]);
    }

    /// Descriptors are unit-norm.
    #[test]
    fn descriptors_unit_norm(id in any::<u64>(), n in 1usize..50) {
        for f in &object_features(id, n).features {
            prop_assert!((f.descriptor.norm() - 1.0).abs() < 1e-4);
        }
    }

    /// Similarity transforms compose sensibly: applying then measuring
    /// distances scales them by the scale factor.
    #[test]
    fn similarity_scales_distances(seed in any::<u64>(), x1 in -100f32..100.0, y1 in -100f32..100.0, x2 in -100f32..100.0, y2 in -100f32..100.0) {
        let t = Similarity::from_seed(seed);
        let (ax, ay) = t.apply(x1, y1);
        let (bx, by) = t.apply(x2, y2);
        let before = ((x1 - x2).powi(2) + (y1 - y2).powi(2)).sqrt();
        let after = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        prop_assert!((after - t.scale * before).abs() < 1e-2 * before.max(1.0));
    }

    /// `prefix` borrows at most k leading features (all of them for k = 0).
    #[test]
    fn prefix_is_prefix(id in any::<u64>(), n in 1usize..100, k in 0usize..120) {
        let set = object_features(id, n);
        let sub = set.prefix(k);
        if k == 0 || n <= k {
            prop_assert_eq!(sub.len(), n);
        } else {
            prop_assert_eq!(sub.len(), k);
            prop_assert_eq!(sub, &set.features[..k]);
        }
    }

    /// The matcher never reports more inliers than tentative matches, and
    /// op accounting always reflects full set sizes.
    #[test]
    fn matcher_invariants(id in any::<u64>(), n in 10usize..120, seed in any::<u64>()) {
        let base = object_features(id, n);
        let view = render_view(&base, Similarity::from_seed(seed), ViewParams::default(), seed);
        let cfg = MatcherConfig { exec_cap: 24, ..MatcherConfig::default() };
        let out = match_pair(&view, &base, &cfg);
        prop_assert!(out.inliers <= out.tentative);
        let nq = view.len() as u64;
        let nt = base.len() as u64;
        prop_assert!(out.ops.distance_computations == nq * nt
            || out.ops.distance_computations == 2 * nq * nt);
        if out.passed {
            prop_assert!(out.transform.is_some());
        } else {
            prop_assert!(out.transform.is_none());
        }
    }

    /// The matcher's outcome — stage, counts, transform bits and metered
    /// ops — equals the scalar reference cascade's on same-object views
    /// with and without clutter and on foreign objects, at every cap.
    #[test]
    fn match_pair_equals_reference_cascade(
        id in any::<u64>(),
        nq in 0usize..131,
        nt in 0usize..131,
        scene in 0u8..3,
        exec_cap in prop::sample::select(EXEC_CAPS.to_vec()),
        seed in any::<u64>(),
    ) {
        let train = object_features(id, nt);
        let view = scene_view(id, nq, scene, seed);
        let cfg = MatcherConfig { exec_cap, ..MatcherConfig::default() };
        prop_assert_eq!(match_pair(&view, &train, &cfg), reference::match_pair(&view, &train, &cfg));
    }

    /// `match_against` over a generated retail database equals the
    /// reference cascade run candidate by candidate. The candidates are the
    /// target's section, as localization prunes them. The database's
    /// objects carry hundreds of features, so the uncapped and 96 cases,
    /// which the property above covers, are left out to keep the
    /// unoptimized test build quick.
    #[test]
    fn match_against_equals_reference_cascade(
        db_seed in 0u64..3,
        pick in 0usize..21,
        nq in 0usize..131,
        scene in 0u8..3,
        exec_cap in prop::sample::select(EXEC_CAPS[1..8].to_vec()),
        seed in any::<u64>(),
    ) {
        let db = ObjectDb::retail_cached(1, db_seed);
        let target = &db.objects()[pick];
        let view = scene_view(target.id, nq, scene, seed);
        let cfg = MatcherConfig { exec_cap, ..MatcherConfig::default() };
        let candidates = db.in_sections(&[target.section]);
        let got = db.match_against(&view, candidates.iter().copied(), &cfg);
        prop_assert_eq!(got, reference::match_against(&view, &candidates, &cfg));
    }

    /// Feature-count model: monotone in pixel count, and the content
    /// factor stays within ±10%.
    #[test]
    fn feature_model_bounds(scene in any::<u64>(), w in 160u32..2000, h in 120u32..1200) {
        let res = Resolution::new(w, h);
        let spec = ImageSpec::new(scene, res);
        let expected = expected_features(res);
        let got = spec.feature_count() as f64;
        prop_assert!(got >= expected * 0.88 && got <= expected * 1.12);
    }

    /// Camera FPS is within (0, 30] and non-increasing in resolution.
    #[test]
    fn camera_fps_bounds(w in 160u32..4000, h in 120u32..2200) {
        let fps = camera_preview_fps(Resolution::new(w, h));
        prop_assert!(fps > 0.0 && fps <= 30.0);
        let bigger = camera_preview_fps(Resolution::new(w + 200, h + 200));
        prop_assert!(bigger <= fps + 1e-9);
    }

    /// Compression: compressed size never exceeds raw grayscale; upload
    /// FPS scales linearly with capacity.
    #[test]
    fn compression_bounds(scene in any::<u64>(), q in 1u8..=100, cap in 1_000_000u64..100_000_000) {
        let spec = ImageSpec::new(scene, Resolution::new(1280, 720));
        let bytes = Codec::Jpeg(q).bytes(spec);
        prop_assert!(bytes <= spec.raw_gray_bytes());
        prop_assert!(bytes > 0);
        let f1 = Codec::Jpeg(q).upload_fps(spec, cap);
        let f2 = Codec::Jpeg(q).upload_fps(spec, cap * 2);
        prop_assert!((f2 / f1 - 2.0).abs() < 1e-9);
    }

    /// Virtual time is linear in operation counts for every device.
    #[test]
    fn match_time_linear(d in 0u64..1_000_000_000, r in 0u64..10_000) {
        for dev in [Device::OnePlusOne, Device::I7Octa, Device::Xeon32] {
            let p = dev.profile();
            let one = p.match_time_s(&MatchOps { distance_computations: d, ransac_iterations: r, ..Default::default() });
            let two = p.match_time_s(&MatchOps { distance_computations: 2 * d, ransac_iterations: 2 * r, ..Default::default() });
            prop_assert!((two - 2.0 * one).abs() < 1e-9 * two.max(1.0));
        }
    }
}

/// The scalar cascade the matcher replaced, kept as the oracle for its
/// exactness: clones the executed prefixes, computes every distance with
/// `Descriptor::dist2` in both directions, maps each RANSAC point with its
/// own `sin_cos` and collects inliers.
mod reference {
    use acacia_vision::db::{DbObject, QueryOutcome};
    use acacia_vision::feature::{Feature, FeatureSet, Similarity};
    use acacia_vision::matcher::{CascadeStage, MatchOps, MatcherConfig, PairOutcome};
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rejected(stage: CascadeStage, tentative: usize, ops: MatchOps) -> PairOutcome {
        PairOutcome {
            passed: false,
            stage,
            inliers: 0,
            tentative,
            transform: None,
            ops,
        }
    }

    fn subsample(set: &FeatureSet, k: usize) -> Vec<Feature> {
        if set.features.len() <= k || k == 0 {
            return set.features.clone();
        }
        set.features[..k].to_vec()
    }

    fn apply(m: &Similarity, x: f32, y: f32) -> (f32, f32) {
        let (s, c) = m.angle.sin_cos();
        (
            m.scale * (c * x - s * y) + m.tx,
            m.scale * (s * x + c * y) + m.ty,
        )
    }

    fn point_of(set: &[Feature], idx: usize) -> (f32, f32) {
        (set[idx].keypoint.x, set[idx].keypoint.y)
    }

    pub fn match_pair(query: &FeatureSet, train: &FeatureSet, cfg: &MatcherConfig) -> PairOutcome {
        let full_q = query.len() as u64;
        let full_t = train.len() as u64;
        let mut ops = MatchOps {
            distance_computations: full_q * full_t,
            ratio_tests: full_q,
            ..MatchOps::default()
        };
        if query.len() < 2 || train.len() < 2 {
            return rejected(CascadeStage::TooFewFeatures, 0, ops);
        }
        let q = subsample(query, cfg.exec_cap);
        let t = subsample(train, cfg.exec_cap);

        let mut forward = Vec::new();
        for (qi, qf) in q.iter().enumerate() {
            let (mut best, mut best_i, mut second) = (f32::INFINITY, usize::MAX, f32::INFINITY);
            for (ti, tf) in t.iter().enumerate() {
                let d = qf.descriptor.dist2(&tf.descriptor);
                if d < best {
                    second = best;
                    best = d;
                    best_i = ti;
                } else if d < second {
                    second = d;
                }
            }
            if best < cfg.ratio * cfg.ratio * second {
                forward.push((qi, best_i));
            }
        }
        if forward.is_empty() {
            return rejected(CascadeStage::RatioTest, 0, ops);
        }

        ops.distance_computations += full_t * full_q;
        ops.symmetry_checks += forward.len() as u64;
        let mut tentative = Vec::new();
        for &(qi, ti) in &forward {
            let (mut best, mut best_q) = (f32::INFINITY, usize::MAX);
            for (qj, qf) in q.iter().enumerate() {
                let d = t[ti].descriptor.dist2(&qf.descriptor);
                if d < best {
                    best = d;
                    best_q = qj;
                }
            }
            if best_q == qi {
                tentative.push((qi, ti));
            }
        }
        if tentative.len() < 2 {
            return rejected(CascadeStage::SymmetryTest, tentative.len(), ops);
        }

        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut best_inliers: Vec<usize> = Vec::new();
        let mut best_model = None;
        for _ in 0..cfg.ransac_iters {
            ops.ransac_iterations += 1;
            let i = rng.gen_range(0..tentative.len());
            let mut j = rng.gen_range(0..tentative.len());
            if i == j {
                j = (j + 1) % tentative.len();
            }
            let Some(model) = similarity_from_pairs(
                point_of(&t, tentative[i].1),
                point_of(&q, tentative[i].0),
                point_of(&t, tentative[j].1),
                point_of(&q, tentative[j].0),
            ) else {
                continue;
            };
            let inliers: Vec<usize> = tentative
                .iter()
                .enumerate()
                .filter(|(_, &(qi, ti))| {
                    let (px, py) = point_of(&t, ti);
                    let (mx, my) = apply(&model, px, py);
                    let (qx, qy) = point_of(&q, qi);
                    let dx = mx - qx;
                    let dy = my - qy;
                    (dx * dx + dy * dy).sqrt() <= cfg.inlier_px
                })
                .map(|(k, _)| k)
                .collect();
            if inliers.len() > best_inliers.len() {
                best_inliers = inliers;
                best_model = Some(model);
            }
        }

        let min_inliers = if cfg.exec_cap == 0 || query.len() <= cfg.exec_cap {
            cfg.min_inliers
        } else {
            let frac = cfg.exec_cap as f64 / query.len() as f64;
            ((cfg.min_inliers as f64 * frac).ceil() as usize).max(4)
        };
        let passed = best_inliers.len() >= min_inliers;
        PairOutcome {
            passed,
            stage: if passed {
                CascadeStage::Accepted
            } else {
                CascadeStage::Ransac
            },
            inliers: best_inliers.len(),
            tentative: tentative.len(),
            transform: if passed { best_model } else { None },
            ops,
        }
    }

    fn similarity_from_pairs(
        p1: (f32, f32),
        q1: (f32, f32),
        p2: (f32, f32),
        q2: (f32, f32),
    ) -> Option<Similarity> {
        let dpx = p2.0 - p1.0;
        let dpy = p2.1 - p1.1;
        let denom = dpx * dpx + dpy * dpy;
        if denom < 1e-9 {
            return None;
        }
        let dqx = q2.0 - q1.0;
        let dqy = q2.1 - q1.1;
        let ar = (dqx * dpx + dqy * dpy) / denom;
        let ai = (dqy * dpx - dqx * dpy) / denom;
        let scale = (ar * ar + ai * ai).sqrt();
        if scale < 1e-6 {
            return None;
        }
        let angle = ai.atan2(ar);
        let tx = q1.0 - (ar * p1.0 - ai * p1.1);
        let ty = q1.1 - (ai * p1.0 + ar * p1.1);
        Some(Similarity {
            angle,
            scale,
            tx,
            ty,
        })
    }

    pub fn match_against(
        frame: &FeatureSet,
        candidates: &[&DbObject],
        cfg: &MatcherConfig,
    ) -> QueryOutcome {
        let mut ops = MatchOps::default();
        let mut best: Option<(u64, PairOutcome)> = None;
        for obj in candidates {
            let outcome = match_pair(frame, &obj.features, cfg);
            ops.merge(outcome.ops);
            if outcome.passed {
                let better = match &best {
                    None => true,
                    Some((_, b)) => outcome.inliers > b.inliers,
                };
                if better {
                    best = Some((obj.id, outcome));
                }
            }
        }
        QueryOutcome {
            best,
            ops,
            candidates_examined: candidates.len(),
        }
    }
}
