//! The committed `BENCH_*.json` perf-trajectory files agree with
//! themselves: a summary field must be derivable from the rows it
//! summarizes.

use serde::Value;

fn committed(name: &str) -> Value {
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e:?}"))
}

#[test]
fn sim_throughput_geomean_matches_its_rows() {
    let doc = committed("BENCH_sim_throughput.json");
    let rows = doc.get("rows").and_then(Value::as_array).expect("rows array");
    assert!(!rows.is_empty(), "no rows");
    let rates: Vec<f64> = rows
        .iter()
        .map(|r| r.get("host_sim_insns_per_sec").and_then(Value::as_f64).expect("row rate"))
        .collect();
    assert!(rates.iter().all(|&r| r > 0.0), "every row ran: {rates:?}");
    let from_rows = (rates.iter().map(|r| r.ln()).sum::<f64>() / rates.len() as f64).exp();
    let field = doc.get("geomean_sim_insns_per_sec").and_then(Value::as_f64).expect("geomean");
    assert!(
        ((field - from_rows) / from_rows).abs() <= 1e-9,
        "geomean field {field} != geomean of {} rows {from_rows}",
        rates.len()
    );
}
