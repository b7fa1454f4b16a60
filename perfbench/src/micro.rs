//! Timings of the pure functions on a publication's path, run on the
//! workload's own message shapes (channel names and body size).

use std::hint::black_box;

use dynamoth_pubsub::client::{frame_payload, parse_payload};
use dynamoth_pubsub::resp::{self, Value};
use dynamoth_pubsub::{
    channel_id_of, BoundedPlacer, BrokerLoadAnalyzer, ChannelMapping, ControlFrame, MessageId,
    Plan, PlanId, ServerId,
};

use crate::live::default_ring;
use crate::report::time_ns;

/// Per-call budget of one timing, milliseconds.
const BUDGET_MS: u64 = 40;

/// `(metric, value, unit)` for every pure-function timing.
pub fn timings(
    names: &[String],
    body: usize,
    brokers: usize,
    cap: f64,
) -> Vec<(String, f64, &'static str)> {
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let chan = names[0].as_str();
    let body = vec![b'x'; body.max(16)];
    let id = MessageId {
        origin: 0x0123_4567_89AB_CDEF,
        seq: 42,
    };
    let framed = frame_payload(id, &body);
    let mut publish = Vec::new();
    resp::encode(
        &Value::array(vec![
            Value::bulk("PUBLISH"),
            Value::bulk(chan),
            Value::Bulk(Some(framed.clone())),
        ]),
        &mut publish,
    );
    out.push((
        "resp.decode_publish_ns".into(),
        time_ns(BUDGET_MS, || {
            black_box(resp::decode(black_box(&publish)).ok());
        }),
        "ns",
    ));
    let push = resp::message_push(chan, &framed);
    let mut wire = Vec::with_capacity(publish.len() + 64);
    out.push((
        "resp.encode_push_ns".into(),
        time_ns(BUDGET_MS, || {
            wire.clear();
            resp::encode(black_box(&push), &mut wire);
            black_box(&wire);
        }),
        "ns",
    ));
    out.push((
        "client.frame_payload_ns".into(),
        time_ns(BUDGET_MS, || {
            black_box(frame_payload(black_box(id), black_box(&body)));
        }),
        "ns",
    ));
    out.push((
        "client.parse_payload_ns".into(),
        time_ns(BUDGET_MS, || {
            black_box(parse_payload(black_box(&framed)));
        }),
        "ns",
    ));
    let analyzer = BrokerLoadAnalyzer::new(16);
    let egress = (publish.len() + 40) as u64;
    let mut i = 0usize;
    out.push((
        "load.note_publish_ns".into(),
        time_ns(BUDGET_MS, || {
            let n = &names[i % names.len()];
            i += 1;
            analyzer.note_publish(n, publish.len() as u64, egress, 1);
        }),
        "ns",
    ));
    let subs: Vec<(String, u32)> = names.iter().map(|n| (n.clone(), 1)).collect();
    out.push((
        "load.harvest_us".into(),
        time_ns(BUDGET_MS, || {
            for n in names {
                analyzer.note_publish(n, 1, 1, 1);
            }
            black_box(analyzer.harvest(subs.clone()));
        }) / 1e3,
        "us",
    ));
    let ring = default_ring(brokers);
    let ids: Vec<_> = names.iter().map(|n| channel_id_of(n)).collect();
    let plan = Plan::bootstrap();
    let mut k = 0usize;
    out.push((
        "plan.resolve_ns".into(),
        time_ns(BUDGET_MS, || {
            k += 1;
            black_box(plan.resolve(ids[k % ids.len()], &ring));
        }),
        "ns",
    ));
    out.push((
        "hashing.server_for_ns".into(),
        time_ns(BUDGET_MS, || {
            k += 1;
            black_box(ring.server_for(ids[k % ids.len()]));
        }),
        "ns",
    ));
    let frame = ControlFrame::Switch {
        channel: chan.to_owned(),
        mapping: ChannelMapping::Single(ServerId::from_index(brokers.saturating_sub(1))),
        plan: PlanId(7),
        quarantine: Vec::new(),
    }
    .encode();
    out.push((
        "control.decode_ns".into(),
        time_ns(BUDGET_MS, || {
            black_box(ControlFrame::decode(black_box(&frame)));
        }),
        "ns",
    ));
    // Bounded-load placement of every workload channel over the brokers.
    let per_channel = cap / names.len().max(1) as f64;
    let loads: Vec<(ServerId, f64)> = (0..brokers)
        .map(|b| (ServerId::from_index(b), cap * 0.5))
        .collect();
    out.push((
        "balance.place_us".into(),
        time_ns(BUDGET_MS, || {
            let mut placer = BoundedPlacer::new(&loads, 0.25, cap, cap);
            for &c in &ids {
                black_box(placer.place(&ring, c, per_channel, &[]));
            }
        }) / 1e3,
        "us",
    ));
    out
}
