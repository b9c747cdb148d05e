//! JSON support for the report pipeline.
//!
//! The value type and writer were born here; when the persistent store
//! (`atlas-store`) needed the matching parser, the whole implementation
//! moved there so both crates share one JSON dialect.  This module remains
//! as the report-facing path (`atlas_bench::json::Json`) and re-exports the
//! shared machinery.

pub use atlas_store::json::{Json, JsonError};

#[cfg(test)]
mod tests {
    use super::*;

    /// The report writer's contract, exercised through the re-export: what
    /// `atlas-batch/2` consumers read back must equal what was written.
    #[test]
    fn report_documents_round_trip_through_the_shared_parser() {
        let doc = Json::obj()
            .set("schema", "atlas-batch/2")
            .set("ratio", 0.5)
            .set("name", "line\nbreak \"quoted\"")
            .set("items", vec![Json::Int(1), Json::Null, Json::str("x")]);
        let parsed = Json::parse(&doc.render()).expect("valid");
        assert_eq!(parsed, doc);
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some("atlas-batch/2")
        );
    }
}
