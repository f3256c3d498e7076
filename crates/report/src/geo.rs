//! Geospatial and grid views — the textual analogues of the demo's map view
//! (Fig. 5: query hits plotted by location) and grid view (Fig. 6: a Smurf
//! DDoS attack cascading across subnetworks).

use crate::table::Table;
use std::collections::BTreeMap;
use streamworks_core::MatchEvent;

// ---------------------------------------------------------------------------
// Fig. 5 analogue: events bucketed by a location-valued binding
// ---------------------------------------------------------------------------

/// Buckets match events by the value bound to a "location" variable and
/// renders a ranked frequency view (the map legend of Fig. 5 without pixels).
#[derive(Debug, Clone)]
pub struct GeoView {
    location_variable: String,
    counts: BTreeMap<String, Vec<MatchEvent>>,
}

impl GeoView {
    /// Creates a view that groups events by the key bound to `location_variable`.
    pub fn new(location_variable: impl Into<String>) -> Self {
        GeoView {
            location_variable: location_variable.into(),
            counts: BTreeMap::new(),
        }
    }

    /// Adds one event; events without the location variable are grouped under
    /// `"<unlocated>"` so they stay visible rather than silently dropped.
    pub fn observe(&mut self, event: &MatchEvent) {
        let location = event
            .binding(&self.location_variable)
            .map(|b| b.key.to_string())
            .unwrap_or_else(|| "<unlocated>".to_owned());
        self.counts.entry(location).or_default().push(event.clone());
    }

    /// Adds a batch of events.
    pub fn observe_all<'a, I: IntoIterator<Item = &'a MatchEvent>>(&mut self, events: I) {
        for ev in events {
            self.observe(ev);
        }
    }

    /// Number of distinct locations seen.
    pub fn location_count(&self) -> usize {
        self.counts.len()
    }

    /// (location, number of events) sorted by descending count, then name.
    pub fn ranked(&self) -> Vec<(String, usize)> {
        let mut v: Vec<(String, usize)> = self
            .counts
            .iter()
            .map(|(k, evs)| (k.clone(), evs.len()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Events observed at one location.
    pub fn events_at(&self, location: &str) -> &[MatchEvent] {
        self.counts
            .get(location)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Renders a ranked table with a proportional bar per location.
    pub fn render(&self) -> String {
        let ranked = self.ranked();
        let max = ranked.first().map(|(_, c)| *c).unwrap_or(0).max(1);
        let mut table = Table::new(["location", "events", ""]);
        for (loc, count) in &ranked {
            let bar_len = (count * 40).div_ceil(max);
            table.add_row([loc.clone(), count.to_string(), "#".repeat(bar_len)]);
        }
        table.render()
    }
}

// ---------------------------------------------------------------------------
// Fig. 6 analogue: subnet grid over time
// ---------------------------------------------------------------------------

/// Extracts the subnet prefix of an IPv4-looking key (`"10.1.2.3"` →
/// `"10.1.2"`); non-IP keys fall back to the whole key, so the grid also works
/// for symbolic hosts (`"victim-0"`).
pub fn subnet_of(key: &str) -> String {
    let octets: Vec<&str> = key.split('.').collect();
    if octets.len() == 4 && octets.iter().all(|o| o.parse::<u8>().is_ok()) {
        octets[..3].join(".")
    } else {
        key.to_owned()
    }
}

/// A grid of (subnet × time bucket) hit counts: the cascading-attack view of
/// Fig. 6 rendered as characters (`.` no activity, `o` some, `O` many,
/// `@` most).
#[derive(Debug, Clone)]
pub struct SubnetGrid {
    bucket_secs: i64,
    hits: BTreeMap<String, BTreeMap<i64, usize>>,
}

impl SubnetGrid {
    /// Creates a grid with the given time-bucket width (seconds of stream time).
    pub fn new(bucket_secs: i64) -> Self {
        SubnetGrid {
            bucket_secs: bucket_secs.max(1),
            hits: BTreeMap::new(),
        }
    }

    /// Records every vertex binding of `event` whose variable appears in
    /// `variables` (e.g. the victim and amplifier variables of the Smurf
    /// query); pass an empty slice to record *all* bindings.
    pub fn observe(&mut self, event: &MatchEvent, variables: &[&str]) {
        let bucket = (event.at.as_micros() / 1_000_000) / self.bucket_secs;
        for b in &event.bindings {
            if !variables.is_empty() && !variables.contains(&b.variable.as_str()) {
                continue;
            }
            let subnet = subnet_of(&b.key);
            *self
                .hits
                .entry(subnet)
                .or_default()
                .entry(bucket)
                .or_insert(0) += 1;
        }
    }

    /// Number of distinct subnets with at least one hit.
    pub fn subnet_count(&self) -> usize {
        self.hits.len()
    }

    /// Total hits recorded in one subnet.
    pub fn hits_in(&self, subnet: &str) -> usize {
        self.hits.get(subnet).map(|m| m.values().sum()).unwrap_or(0)
    }

    /// Renders the grid: one row per subnet, one column per time bucket.
    pub fn render(&self) -> String {
        if self.hits.is_empty() {
            return "(no activity)\n".to_owned();
        }
        let min_bucket = self
            .hits
            .values()
            .flat_map(|m| m.keys().copied())
            .min()
            .unwrap_or(0);
        let max_bucket = self
            .hits
            .values()
            .flat_map(|m| m.keys().copied())
            .max()
            .unwrap_or(0);
        let max_hits = self
            .hits
            .values()
            .flat_map(|m| m.values().copied())
            .max()
            .unwrap_or(1)
            .max(1);
        let mut out = String::new();
        out.push_str(&format!(
            "time buckets {min_bucket}..={max_bucket} ({}s each), {} subnets\n",
            self.bucket_secs,
            self.hits.len()
        ));
        let width = self
            .hits
            .keys()
            .map(|s| s.chars().count())
            .max()
            .unwrap_or(0);
        for (subnet, buckets) in &self.hits {
            out.push_str(&format!("{subnet:>width$} |"));
            for b in min_bucket..=max_bucket {
                let hits = buckets.get(&b).copied().unwrap_or(0);
                let c = if hits == 0 {
                    '.'
                } else if hits * 3 <= max_hits {
                    'o'
                } else if hits * 3 <= 2 * max_hits {
                    'O'
                } else {
                    '@'
                };
                out.push(c);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamworks_core::{BoundVertex, QueryId};
    use streamworks_graph::{Duration, Timestamp, VertexId};

    fn event(at: i64, bindings: &[(&str, &str)]) -> MatchEvent {
        MatchEvent {
            query: QueryId(0),
            query_generation: 0,
            query_name: "smurf".into(),
            at: Timestamp::from_secs(at),
            span: Duration::from_secs(2),
            bindings: bindings
                .iter()
                .enumerate()
                .map(|(i, (var, key))| BoundVertex {
                    variable: (*var).into(),
                    vertex: VertexId(i as u32),
                    key: (*key).into(),
                })
                .collect(),
            edges: Vec::new(),
        }
    }

    #[test]
    fn geo_view_ranks_locations_by_count() {
        let mut view = GeoView::new("l");
        view.observe_all(&[
            event(1, &[("l", "paris")]),
            event(2, &[("l", "paris")]),
            event(3, &[("l", "tokyo")]),
            event(4, &[("a", "no-location")]),
        ]);
        assert_eq!(view.location_count(), 3);
        let ranked = view.ranked();
        assert_eq!(ranked[0], ("paris".to_owned(), 2));
        assert_eq!(view.events_at("tokyo").len(), 1);
        assert!(view.events_at("atlantis").is_empty());
        let text = view.render();
        assert!(text.contains("paris"));
        assert!(text.contains("<unlocated>"));
        assert!(text.contains('#'));
    }

    #[test]
    fn subnet_extraction_handles_ips_and_symbolic_keys() {
        assert_eq!(subnet_of("10.1.2.3"), "10.1.2");
        assert_eq!(subnet_of("192.168.0.255"), "192.168.0");
        assert_eq!(subnet_of("victim-0"), "victim-0");
        assert_eq!(subnet_of("10.1.2.999"), "10.1.2.999"); // not a valid octet
    }

    #[test]
    fn grid_buckets_hits_by_subnet_and_time() {
        let mut grid = SubnetGrid::new(10);
        grid.observe(
            &event(5, &[("victim", "10.0.0.1"), ("amp0", "10.0.1.7")]),
            &[],
        );
        grid.observe(&event(25, &[("victim", "10.0.0.2")]), &["victim"]);
        grid.observe(&event(25, &[("attacker", "10.9.9.9")]), &["victim"]);
        assert_eq!(grid.subnet_count(), 2);
        assert_eq!(grid.hits_in("10.0.0"), 2);
        assert_eq!(grid.hits_in("10.0.1"), 1);
        assert_eq!(grid.hits_in("10.9.9"), 0);
        let text = grid.render();
        assert!(text.contains("10.0.0"));
        // Three buckets (0, 1, 2) are rendered for the 10.0.0 row.
        let row = text.lines().find(|l| l.contains("10.0.0 ")).unwrap();
        assert!(row.ends_with("@.@") || row.ends_with("@.o") || row.contains('|'));
    }

    #[test]
    fn empty_grid_renders_placeholder() {
        let grid = SubnetGrid::new(60);
        assert_eq!(grid.render(), "(no activity)\n");
        assert_eq!(grid.subnet_count(), 0);
    }
}
