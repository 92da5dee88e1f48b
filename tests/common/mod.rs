//! Helpers shared by the root integration tests.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlt_core::spec::{History, HistoryBuilder, OpId, ProcessId, RegisterId, Value};

/// A random well-formed `History<Value>` with a pending tail (same shape as the
/// wire-codec property corpus).
pub fn random_history(seed: u64, max_ops: usize) -> History<Value> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b: HistoryBuilder<Value> = HistoryBuilder::new();
    let mut open: Vec<(OpId, bool)> = Vec::new();
    let value = |rng: &mut StdRng| match rng.gen_range(0..3) {
        0 => Value::Init,
        1 => Value::Int(rng.gen_range(1..4)),
        _ => Value::Pair(rng.gen_range(0..3), rng.gen_range(0..3)),
    };
    for _ in 0..rng.gen_range(1..=max_ops) {
        let p = ProcessId(rng.gen_range(0..3));
        let r = RegisterId(rng.gen_range(0..2));
        if rng.gen_bool(0.5) {
            let v = value(&mut rng);
            open.push((b.invoke_write(p, r, v), false));
        } else {
            open.push((b.invoke_read(p, r), true));
        }
        while !open.is_empty() && rng.gen_bool(0.5) {
            let (id, is_read) = open.swap_remove(rng.gen_range(0..open.len()));
            if is_read {
                let v = value(&mut rng);
                b.respond_read(id, v);
            } else {
                b.respond_write(id);
            }
        }
    }
    b.build()
}
