//! Incident reporting: the textual analogue of the demo UI (Figs. 4–7).
//!
//! Run with:
//! ```text
//! cargo run --release --example incident_report [-- <background_edges>]
//! ```
//!
//! Detects Smurf DDoS and port-scan patterns on a synthetic traffic stream and
//! then produces every report artefact the `streamworks-report` crate offers:
//! the tabular event view, the per-subnet activity grid (Fig. 6), the
//! location/victim frequency view (Fig. 5), the statistics panel (§1.1), and
//! Graphviz DOT exports of the query, its SJ-Tree and one matched
//! neighbourhood (the Gephi rendering of §6.2). DOT files are written next to
//! the binary's working directory as `incident_*.dot`.

use streamworks::report::{
    match_to_dot, query_graph_to_dot, sjtree_to_dot, summary_report, EventTable, EventTableSpec,
    GeoView, SubnetGrid,
};
use streamworks::workloads::queries::{port_scan_query, smurf_ddos_query};
use streamworks::workloads::{AttackKind, CyberConfig, CyberTrafficGenerator};
use streamworks::{ContinuousQueryEngine, Duration, MatchEvent};

fn main() {
    let background_edges: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000);

    // 1. Synthetic traffic with injected attacks (the CAIDA stand-in).
    let workload = CyberTrafficGenerator::new(CyberConfig {
        hosts: 500,
        background_edges,
        attacks: vec![(AttackKind::SmurfDdos, 5), (AttackKind::PortScan, 8)],
        ..Default::default()
    })
    .generate();
    println!(
        "generated {} events with {} injected attacks",
        workload.events.len(),
        workload.attacks.len()
    );

    // 2. Register the Fig. 3 queries.
    let mut engine = ContinuousQueryEngine::builder().build().unwrap();
    let window = Duration::from_mins(5);
    let smurf = smurf_ddos_query(5, window);
    let scan = port_scan_query(8, window);
    let smurf_id = engine.register_query(smurf.clone()).unwrap();
    let scan_id = engine.register_query(scan).unwrap();

    // 3. Replay the stream, collecting matches. Star- and fan-shaped attack
    //    patterns have many automorphic embeddings (every permutation of the
    //    interchangeable amplifier/target variables is a distinct isomorphism),
    //    so for the incident report we deduplicate matches down to their bound
    //    vertex *sets* — one row per actual incident, as the demo UI would show.
    let mut matches: Vec<MatchEvent> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    let mut incidents: Vec<MatchEvent> = Vec::new();
    for ev in &workload.events {
        for m in engine.ingest(ev).unwrap() {
            let mut key: Vec<String> = m.bindings.iter().map(|b| b.key.to_string()).collect();
            key.sort();
            key.push(m.query.0.to_string());
            if seen.insert(key) {
                incidents.push(m.clone());
            }
            matches.push(m);
        }
    }
    println!(
        "{} match events ({} distinct incidents after automorphism dedup)\n",
        matches.len(),
        incidents.len()
    );

    // 4. Tabular event view (Fig. 6's table).
    let spec = EventTableSpec::standard()
        .label(smurf_id.id(), "smurf-ddos")
        .label(scan_id.id(), "port-scan");
    let table = EventTable::build(&spec, &incidents[..incidents.len().min(20)]);
    println!("=== incident table (first 20) ===\n{}", table.render());

    // 5. Victim frequency view (Fig. 5's map legend), over the Smurf incidents
    //    (the port-scan query has no `victim` variable).
    let mut geo = GeoView::new("victim");
    geo.observe_all(incidents.iter().filter(|m| m.query == smurf_id.id()));
    println!("=== incidents per victim ===\n{}", geo.render());

    // 6. Subnet activity grid (Fig. 6's cascading blue dots).
    let mut grid = SubnetGrid::new(60);
    for m in &incidents {
        grid.observe(m, &[]);
    }
    println!("=== subnet × time activity grid ===\n{}", grid.render());

    // 7. The statistics panel (§1.1 / §4.3).
    println!(
        "=== graph statistics ===\n{}",
        summary_report(engine.summary(), engine.graph(), 5)
    );

    // 8. Graphviz exports (the Gephi analogue). Render with e.g.
    //    `dot -Tpng incident_sjtree.dot -o sjtree.png`.
    let plan = engine.plan(smurf_id).unwrap();
    std::fs::write("incident_query.dot", query_graph_to_dot(&smurf)).unwrap();
    std::fs::write("incident_sjtree.dot", sjtree_to_dot(&smurf, &plan.shape)).unwrap();
    if let Some(first) = matches.first() {
        std::fs::write(
            "incident_match.dot",
            match_to_dot(engine.graph(), first, true),
        )
        .unwrap();
    }
    println!("wrote incident_query.dot, incident_sjtree.dot and incident_match.dot");
}
