//! Smoke pass over all four workloads at reduced size, and a check that
//! `BENCHMARK.json` and this binary declare the same benchmark.

use super::*;

const SMOKE_SEED: u64 = 3;

fn names_of(table: &[(&'static str, &'static str)]) -> Vec<&'static str> {
    table.iter().map(|(n, _)| *n).collect()
}

#[test]
fn every_workload_reports_every_metric_and_repeats_exactly() {
    for (name, _) in WORKLOADS {
        let (report, window) =
            run_end_to_end(name, SMOKE_SEED, 0.05, Size::Smoke).expect("known workload");
        assert!(report.correct, "{name}: an output check failed");
        assert_eq!(report.failed, 0, "{name}");
        assert!(report.attempted >= window.virtual_bits.len() && report.attempted > 0, "{name}");
        let names: Vec<_> = report.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, names_of(END_TO_END), "{name}: metric names");
        for (metric, value, unit) in &report.metrics {
            assert!(value.is_finite() && *value > 0.0, "{name}: {metric} = {value}");
            assert!(!unit.is_empty(), "{name}: {metric} has no unit");
        }
        let json = report.json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        assert!(!json.contains('\n'), "the result is one line");

        // The traced run builds fresh state twice and is `correct` only if
        // the stepwise pipeline returned the one-shot pipeline's rows and
        // virtual seconds, operation by operation: the repeat check.
        let (layers, other) =
            run_per_layer(name, SMOKE_SEED + 1, Size::Smoke, None).expect("known workload");
        assert!(layers.correct, "{name}: traced and untraced runs disagree");
        let names: Vec<_> = layers.metrics.iter().map(|(n, _, _)| *n).collect();
        assert_eq!(names, names_of(PER_LAYER), "{name}: metric names");
        for (metric, value, _) in &layers.metrics {
            assert!(value.is_finite(), "{name}: {metric} = {value}");
        }
        let get = |m: &str| layers.metrics.iter().find(|(n, _, _)| *n == m).map(|(_, v, _)| *v);
        assert_eq!(get("failed_share"), Some(0.0), "{name}");
        assert!(get("virtual_s_p50") > Some(0.0), "{name}: virtual time is charged");
        let ratio = get("engine.span_sum_ratio").expect("declared");
        assert!(ratio > 0.5 && ratio <= 1.0, "{name}: span_sum_ratio {ratio}");
        assert!(window.diff(&other).is_some(), "{name}: the seed must reach the inputs");
    }
}

#[test]
fn arguments_follow_the_driver_contract() {
    let parse = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = parse("--workload bgp-join --seed 11 --seconds 20 --trace 0").expect("driver form");
    assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("bgp-join", 11, 20.0, false));
    assert!(parse("--workload bgp-join --trace 1").expect("value form").trace);
    assert!(parse("--workload all --trace --seed 2").expect("bare flag").trace);
    assert!(parse("--workload nope").is_err());
    assert!(parse("--workload bgp-join --seconds 0").is_err());
    assert!(parse("--seed 1").is_err(), "a workload is required");
}

/// The array under `"key"` in our own `BENCHMARK.json`, split into the
/// text of its objects. Enough of a parser for a file this test owns.
fn objects_under<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} key"));
    let open = start + text[start..].find('[').expect("array opens");
    let close = open + text[open..].find(']').expect("array closes");
    text[open + 1..close].split('}').filter(|o| o.contains("\"name\"")).collect()
}

fn string_field<'a>(object: &'a str, field: &str) -> Option<&'a str> {
    let at = object.find(&format!("\"{field}\""))?;
    let rest = &object[at + field.len() + 2..];
    let open = rest.find('"')? + 1;
    let close = open + rest[open..].find('"')?;
    Some(&rest[open..close])
}

#[test]
fn benchmark_json_declares_what_the_binary_prints() {
    let mut dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    while !dir.join("BENCHMARK.json").exists() {
        assert!(dir.pop(), "BENCHMARK.json not found above CARGO_MANIFEST_DIR");
    }
    let text = std::fs::read_to_string(dir.join("BENCHMARK.json")).expect("readable");
    let valid_name = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    };

    let workloads = objects_under(&text, "workloads");
    let names: Vec<_> = workloads.iter().filter_map(|o| string_field(o, "name")).collect();
    assert_eq!(names, names_of(WORKLOADS));
    for o in &workloads {
        let why = string_field(o, "why").expect("every workload says why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }

    let end_to_end = objects_under(&text, "end_to_end");
    let declared: Vec<_> = end_to_end
        .iter()
        .map(|o| (string_field(o, "name").expect("name"), string_field(o, "unit").expect("unit")))
        .collect();
    assert_eq!(declared, END_TO_END);
    for o in &end_to_end {
        let better = string_field(o, "better").expect("every metric has a direction");
        assert!(matches!(better, "lower" | "higher"));
        let at = o.find("\"bound\"").expect("every end-to-end metric has a bound");
        let bound: f64 = o[at + 7..]
            .trim_start_matches([':', ' '])
            .split([',', '\n', ' '])
            .next()
            .and_then(|b| b.parse().ok())
            .expect("bound is a number");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let setup = end_to_end.iter().find(|o| string_field(o, "name") == Some("setup_s"));
    assert_eq!(setup.and_then(|o| string_field(o, "better")), Some("lower"));

    let per_layer = objects_under(&text, "per_layer");
    let declared: Vec<_> = per_layer
        .iter()
        .map(|o| (string_field(o, "name").expect("name"), string_field(o, "unit").expect("unit")))
        .collect();
    assert_eq!(declared, PER_LAYER);
    assert!(per_layer.iter().all(|o| !o.contains("\"bound\"")), "per-layer metrics are unbounded");

    let all = [names_of(END_TO_END), names_of(PER_LAYER), names_of(WORKLOADS)].concat();
    assert!(all.iter().all(|n| valid_name(n)), "names match [A-Za-z0-9][A-Za-z0-9_.-]*");
    let mut unique = all.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), all.len(), "every name is used once");
}
