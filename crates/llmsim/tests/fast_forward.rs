//! Differential test of the endpoint's fast path: a step that runs
//! follow-on decode iterations in place must leave the endpoint exactly
//! where stepping every iteration as its own event leaves it.

use murakkab_hardware::catalog;
use murakkab_llmsim::{model, Completion, Endpoint, Request, TpGroup};
use murakkab_sim::{SimDuration, SimTime};
use proptest::prelude::*;

/// What one drive of an endpoint produced, in call order.
#[derive(Debug, Default)]
struct Drive {
    completions: Vec<Completion>,
    /// Boundaries armed by submissions, in submission order.
    submit_arms: Vec<SimTime>,
    /// `(step instant, iterations, boundary armed next)` per step.
    steps: Vec<(SimTime, u64, Option<SimTime>)>,
}

/// Drives `ep` through `subs` (sorted by instant) the way the engine's
/// event loop would: a submission queued at the same instant as the
/// armed boundary pops first, so a step runs only when its boundary is
/// strictly earlier. `horizon(i, now)` picks step `i`'s horizon; it is
/// capped at the next submission, before which nothing may run.
fn drive(
    ep: &mut Endpoint,
    subs: &[(SimTime, Request)],
    horizon: impl Fn(usize, SimTime) -> SimTime,
) -> Drive {
    let mut out = Drive::default();
    let mut armed = None;
    let mut next_sub = 0;
    loop {
        let sub_at = subs.get(next_sub).map(|&(at, _)| at);
        match (armed, sub_at) {
            (Some(t), _) if sub_at.is_none_or(|s| t < s) => {
                let cap = sub_at.unwrap_or(SimTime::MAX);
                let h = horizon(out.steps.len(), t).min(cap);
                let o = ep.on_step(t, h, &mut out.completions).expect("armed step");
                assert!(o.iterations >= 1);
                out.steps.push((t, o.iterations, o.next_step));
                armed = o.next_step;
            }
            (_, Some(at)) => {
                let (_, req) = subs[next_sub];
                next_sub += 1;
                if let Some(t) = ep.on_submit(req, at).expect("request fits") {
                    out.submit_arms.push(t);
                    armed = Some(t);
                }
            }
            (_, None) => break,
        }
    }
    out
}

/// The endpoint's observable state, rendered exactly (`Debug` prints
/// every `f64` at round-trip precision).
fn observed(ep: &Endpoint) -> String {
    format!(
        "{:?}\n{:?}\n{:?}\n{:?}",
        ep.stats(),
        ep.util_series().points(),
        ep.kv_series().points(),
        ep.phase_busy()
    )
}

proptest! {
    /// Random streams, batch limits and (optionally KV-tight) pools:
    /// every completion, statistic, series point and busy total matches
    /// the one-iteration-per-step reference; the fast path's boundaries
    /// are the reference's with the fast-forwarded ones elided, and its
    /// iteration counts sum to the reference's step count.
    #[test]
    fn fast_forward_matches_per_iteration_stepping(
        reqs in prop::collection::vec(
            (0u64..400_000, 1u32..1_000, 1u32..300, 1u32..700, 0usize..40),
            1..30,
        ),
        max_batch in 1u32..12,
        kv_tight in any::<bool>(),
        horizons in prop::collection::vec((0u8..3, 0u64..2_000_000), 1..12),
    ) {
        let model = model::llama3_8b();
        let group = TpGroup::new(catalog::a100_80g(), 1);
        let cap = group.kv_capacity_tokens(&model);
        let new_ep = || Endpoint::new("ff", model.clone(), group.clone(), max_batch);
        let mut subs: Vec<(SimTime, Request)> = Vec::new();
        for (i, &(gap_us, prompt, output, share, snap)) in reqs.iter().enumerate() {
            let prev = subs.last().map_or(SimTime::ZERO, |&(at, _)| at);
            let mut at = prev + SimDuration::from_micros(gap_us);
            // Every other request lands exactly on a decode boundary of
            // the stream before it, so submissions tie with boundaries
            // the fast path could otherwise run past.
            if snap % 2 == 1 {
                let before = drive(&mut new_ep(), &subs, |_, now| now);
                let later: Vec<SimTime> =
                    before.steps.iter().map(|s| s.0).filter(|&t| t > prev).collect();
                if !later.is_empty() {
                    at = later[snap % later.len()];
                }
            }
            // KV-tight streams size prompts at 0.1–70% of the pool, so
            // admission blocks on KV, not only on the batch limit.
            let prompt = if kv_tight {
                (cap * u64::from(share) / 1_000).max(1) as u32
            } else {
                prompt
            };
            subs.push((at, Request::new(i as u64, prompt, output)));
        }

        let mut reference = new_ep();
        let per_iteration = drive(&mut reference, &subs, |_, now| now);
        let mut fast = new_ep();
        let fast_drive = drive(&mut fast, &subs, |i, now| {
            let (kind, offset) = horizons[i % horizons.len()];
            match kind {
                0 => now,
                1 => now + SimDuration::from_micros(offset),
                _ => SimTime::MAX,
            }
        });

        prop_assert_eq!(&fast_drive.completions, &per_iteration.completions);
        prop_assert_eq!(fast_drive.completions.len(), subs.len());
        prop_assert_eq!(&fast_drive.submit_arms, &per_iteration.submit_arms);
        prop_assert_eq!(observed(&fast), observed(&reference));
        prop_assert!(per_iteration.steps.iter().all(|s| s.1 == 1));

        // Each fast step stands for `iterations` consecutive reference
        // steps: it starts where the first did and arms what the last
        // armed.
        let mut j = 0;
        for &(now, iterations, next) in &fast_drive.steps {
            prop_assert_eq!(per_iteration.steps[j].0, now);
            j += iterations as usize;
            prop_assert_eq!(per_iteration.steps[j - 1].2, next);
        }
        prop_assert_eq!(j, per_iteration.steps.len());
    }
}

/// A lone request with nothing else in flight runs its whole decode in
/// two events: the first token, then one fast-forward to the boundary
/// that completes it.
#[test]
fn lone_request_fast_forwards_to_its_completion() {
    let mut ep = Endpoint::new(
        "ff",
        model::llama3_8b(),
        TpGroup::new(catalog::a100_80g(), 1),
        8,
    );
    let first = ep
        .on_submit(Request::new(0, 512, 64), SimTime::ZERO)
        .expect("fits")
        .expect("idle endpoint arms");
    let mut done = Vec::new();
    let o = ep.on_step(first, SimTime::MAX, &mut done).expect("armed");
    assert!(done.is_empty());
    assert_eq!(o.iterations, 63, "tokens 2..=63 run in place");
    let last = o.next_step.expect("one iteration left");
    let o = ep.on_step(last, SimTime::MAX, &mut done).expect("armed");
    assert_eq!(o.iterations, 1);
    assert_eq!(o.next_step, None);
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].first_token, first);
    assert_eq!(done[0].finished, last);
    assert_eq!(ep.stats().tokens_out.get(), 64);
}
