//! The timing harness behind `stacksim bench` ([`perf`]) and the
//! dependency-free micro-benchmark helpers ([`timing`]) the benches under
//! `benches/` share. Figures and tables are reproduced by
//! `stacksim run <name> --show`, not here.

pub mod perf;
pub mod timing;
