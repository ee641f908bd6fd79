//! Helpers shared by the integration tests (each test binary that
//! declares `mod common;` compiles its own copy).

pub mod chaos;
