//! Fugaku's Parallel Job Manager (PJM) resource specifications.
//!
//! Section V of the paper: *"Fugaku uses the Parallel Job Manager (PJM) for
//! scheduling. HPX was extended to support PJM"* (HPX PR #5870).  That HPX
//! change teaches the runtime to read its node/process layout from PJM's
//! environment instead of mpirun-style variables.  This module models the
//! same contract: parse a PJM `#PJM -L`/`--mpi` style specification into a
//! [`JobSpec`] the simulated cluster can be built from.

/// A parsed PJM job specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// `#PJM -L node=N` — number of compute nodes.
    pub nodes: usize,
    /// `#PJM --mpi proc=P` — total ranks (localities); defaults to `nodes`.
    pub procs: usize,
    /// `#PJM -L rscgrp=...` — resource group name.
    pub resource_group: String,
    /// `#PJM -L elapse=HH:MM:SS` — wall-clock limit in seconds.
    pub elapse_limit_s: u64,
    /// `#PJM -L freq=2200` style boost request: `true` selects the 2.2 GHz
    /// boost mode, `false` the 1.8 GHz default (Section VI-A).
    pub boost_mode: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            nodes: 1,
            procs: 1,
            resource_group: "small".to_owned(),
            elapse_limit_s: 3600,
            boost_mode: false,
        }
    }
}

/// Errors from [`JobSpec::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PjmError {
    /// A directive had an unparseable value.
    BadValue { key: String, value: String },
    /// A `-L`/`--mpi` assignment was malformed.
    Malformed(String),
}

impl std::fmt::Display for PjmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PjmError::BadValue { key, value } => {
                write!(f, "bad value '{value}' for PJM key '{key}'")
            }
            PjmError::Malformed(s) => write!(f, "malformed PJM assignment '{s}'"),
        }
    }
}

impl std::error::Error for PjmError {}

impl JobSpec {
    /// Parse a PJM batch-script fragment.
    ///
    /// Recognised directives (one per line, other lines are ignored):
    ///
    /// ```text
    /// #PJM -L node=1024
    /// #PJM -L rscgrp=large
    /// #PJM -L elapse=01:30:00
    /// #PJM -L freq=2200        # 2200 => boost, 1800 => default
    /// #PJM --mpi proc=4096
    /// ```
    pub fn parse(script: &str) -> Result<JobSpec, PjmError> {
        let mut spec = JobSpec::default();
        let mut procs_explicit = false;
        for line in script.lines() {
            let line = line.trim();
            let Some(rest) = line.strip_prefix("#PJM") else {
                continue;
            };
            let rest = rest.trim();
            let assigns: &str = if let Some(r) = rest.strip_prefix("-L") {
                r.trim()
            } else if let Some(r) = rest.strip_prefix("--mpi") {
                r.trim()
            } else {
                continue;
            };
            // Strip trailing comments.
            let assigns = assigns.split('#').next().unwrap_or("").trim();
            for assign in assigns.split(',') {
                let assign = assign.trim();
                if assign.is_empty() {
                    continue;
                }
                let Some((key, value)) = assign.split_once('=') else {
                    return Err(PjmError::Malformed(assign.to_owned()));
                };
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "node" => {
                        spec.nodes = parse_num(key, value)?;
                    }
                    "proc" => {
                        spec.procs = parse_num(key, value)?;
                        procs_explicit = true;
                    }
                    "rscgrp" => {
                        spec.resource_group = value.to_owned();
                    }
                    "elapse" => {
                        spec.elapse_limit_s =
                            parse_elapse(value).ok_or_else(|| PjmError::BadValue {
                                key: key.to_owned(),
                                value: value.to_owned(),
                            })?;
                    }
                    "freq" => {
                        let mhz: u64 = parse_num(key, value)?;
                        spec.boost_mode = mhz >= 2200;
                    }
                    _ => {} // unknown keys are PJM's problem, not ours
                }
            }
        }
        if !procs_explicit {
            spec.procs = spec.nodes;
        }
        Ok(spec)
    }

    /// Render back to a canonical PJM fragment (round-trips through
    /// [`JobSpec::parse`]).
    pub fn to_script(&self) -> String {
        let h = self.elapse_limit_s / 3600;
        let m = (self.elapse_limit_s % 3600) / 60;
        let s = self.elapse_limit_s % 60;
        format!(
            "#PJM -L node={}\n#PJM -L rscgrp={}\n#PJM -L elapse={:02}:{:02}:{:02}\n#PJM -L freq={}\n#PJM --mpi proc={}\n",
            self.nodes,
            self.resource_group,
            h,
            m,
            s,
            if self.boost_mode { 2200 } else { 1800 },
            self.procs,
        )
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, PjmError> {
    value.parse().map_err(|_| PjmError::BadValue {
        key: key.to_owned(),
        value: value.to_owned(),
    })
}

fn parse_elapse(value: &str) -> Option<u64> {
    let parts: Vec<&str> = value.split(':').collect();
    match parts.as_slice() {
        [h, m, s] => Some(
            h.parse::<u64>().ok()? * 3600 + m.parse::<u64>().ok()? * 60 + s.parse::<u64>().ok()?,
        ),
        [m, s] => Some(m.parse::<u64>().ok()? * 60 + s.parse::<u64>().ok()?),
        [s] => s.parse().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_fugaku_script() {
        let script = "\
#!/bin/bash
#PJM -L node=1024
#PJM -L rscgrp=large
#PJM -L elapse=01:30:00
#PJM -L freq=2200
#PJM --mpi proc=1024
mpiexec ./octotiger
";
        let spec = JobSpec::parse(script).unwrap();
        assert_eq!(spec.nodes, 1024);
        assert_eq!(spec.procs, 1024);
        assert_eq!(spec.resource_group, "large");
        assert_eq!(spec.elapse_limit_s, 5400);
        assert!(spec.boost_mode);
    }

    #[test]
    fn procs_default_to_nodes() {
        let spec = JobSpec::parse("#PJM -L node=16\n").unwrap();
        assert_eq!(spec.procs, 16);
    }

    #[test]
    fn comma_separated_assignments() {
        let spec = JobSpec::parse("#PJM -L node=8,rscgrp=small,elapse=00:10:00\n").unwrap();
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.resource_group, "small");
        assert_eq!(spec.elapse_limit_s, 600);
    }

    #[test]
    fn default_frequency_is_not_boost() {
        let spec = JobSpec::parse("#PJM -L node=4,freq=1800\n").unwrap();
        assert!(!spec.boost_mode);
    }

    #[test]
    fn bad_node_count_is_an_error() {
        let err = JobSpec::parse("#PJM -L node=abc\n").unwrap_err();
        assert!(matches!(err, PjmError::BadValue { .. }));
    }

    #[test]
    fn malformed_assignment_is_an_error() {
        let err = JobSpec::parse("#PJM -L node\n").unwrap_err();
        assert!(matches!(err, PjmError::Malformed(_)));
    }

    #[test]
    fn script_roundtrip() {
        let spec = JobSpec {
            nodes: 128,
            procs: 512,
            resource_group: "large".to_owned(),
            elapse_limit_s: 7230,
            boost_mode: true,
        };
        let reparsed = JobSpec::parse(&spec.to_script()).unwrap();
        assert_eq!(reparsed, spec);
    }

    #[test]
    fn ignores_unrelated_lines_and_comments() {
        let spec = JobSpec::parse("# comment\nexport X=1\n#PJM -L node=2 # two nodes\n").unwrap();
        assert_eq!(spec.nodes, 2);
    }
}
