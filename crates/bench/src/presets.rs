//! Workload presets shared by the experiment binaries.

use streamworks_workloads::{cyber::CyberConfig, news::NewsConfig, AttackKind};

/// Coarse workload scale selector used by the experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresetSize {
    /// Tens of thousands of edges — quick smoke runs and CI.
    Small,
    /// Hundreds of thousands of edges — the default for reported numbers.
    Medium,
    /// A million-plus edges — the ingest-rate experiment (E9).
    Large,
}

impl PresetSize {
    /// Parses a size name ("small", "medium", "large"), defaulting to small.
    pub fn parse(s: &str) -> PresetSize {
        match s.to_ascii_lowercase().as_str() {
            "medium" | "m" => PresetSize::Medium,
            "large" | "l" => PresetSize::Large,
            _ => PresetSize::Small,
        }
    }

    fn scale(self) -> usize {
        match self {
            PresetSize::Small => 1,
            PresetSize::Medium => 10,
            PresetSize::Large => 50,
        }
    }
}

/// Cyber-traffic preset: background traffic plus one instance of each attack.
pub fn cyber_preset(size: PresetSize) -> CyberConfig {
    CyberConfig {
        hosts: 500 * size.scale(),
        background_edges: 20_000 * size.scale(),
        attacks: vec![
            (AttackKind::SmurfDdos, 5),
            (AttackKind::PortScan, 8),
            (AttackKind::WormSpread, 4),
        ],
        ..Default::default()
    }
}

/// News-stream preset with the three labelled bursts of the default config.
pub fn news_preset(size: PresetSize) -> NewsConfig {
    NewsConfig {
        articles: 5_000 * size.scale(),
        keywords: 300 * size.scale(),
        locations: 80 * size.scale().max(1),
        ..Default::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_scale_monotonically() {
        assert!(
            cyber_preset(PresetSize::Large).background_edges
                > cyber_preset(PresetSize::Small).background_edges
        );
        assert!(news_preset(PresetSize::Medium).articles > news_preset(PresetSize::Small).articles);
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(PresetSize::parse("medium"), PresetSize::Medium);
        assert_eq!(PresetSize::parse("L"), PresetSize::Large);
        assert_eq!(PresetSize::parse("anything"), PresetSize::Small);
    }
}
