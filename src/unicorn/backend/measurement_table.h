// The one on-disk format of the measurement plane: a persisted map from
// configuration to full measurement row, with per-row provenance.
//
// MeasurementBroker::SaveCache dumps its dedup cache here, RecordedBackend
// replays it, and CausalModelEngine::SeedFromTable warm-starts a model from
// it — the ROADMAP's "cross-campaign table sharing" in one CSV. The full
// column schema, round-trip guarantee, and rejection rules are documented in
// docs/MEASUREMENT_PLANE.md; in short:
//
//   header  `unicorn-measurement-table-v2,<num options>,<num vars>`
//   record  <option values...>,<full variable row...>,<provenance>
//
// Values are written with 17 significant digits so doubles round-trip
// bit-exactly: the broker keys its cache on the exact bit pattern of a
// configuration, and replay identity depends on getting those bits back.
// `provenance` is the environment label of the backend that measured the row
// (empty when unknown) — the label RecordedBackend adopts as its routing
// tag; a transfer campaign seeds the recorded rows into its engine as
// source-provenance rows (SeedFromTable). v1 files (no provenance
// field) still load; their provenance reads back empty.
#ifndef UNICORN_UNICORN_BACKEND_MEASUREMENT_TABLE_H_
#define UNICORN_UNICORN_BACKEND_MEASUREMENT_TABLE_H_

#include <string>
#include <vector>

namespace unicorn {

/// A persisted measurement table: (configuration, row, provenance) records
/// in insertion order. Plain data — copyable, no hidden state.
/// Thread-safety: none (value type; guard concurrent mutation yourself).
struct MeasurementTable {
  /// One persisted measurement.
  struct Entry {
    std::vector<double> config;  ///< option values, in option order
    std::vector<double> row;     ///< the full variable row (options echoed)
    /// Environment label of the backend that measured the row; empty when
    /// unknown (v1 files, untagged broker requests).
    std::string provenance;
  };

  size_t num_options = 0;
  size_t num_vars = 0;
  std::vector<Entry> entries;

  /// The single provenance label shared by every entry, or "" when the table
  /// is empty or entries disagree. RecordedBackend uses this to adopt the
  /// recording's environment tag automatically.
  /// Thread-safety: const, safe concurrently with other readers.
  std::string UniformProvenance() const;
};

/// Writes `table` to `path` in the v2 CSV format above.
/// Failure: returns false on I/O failure (nothing useful was written).
/// Thread-safety: safe for distinct paths; callers serialize same-path use.
bool SaveMeasurementTable(const std::string& path, const MeasurementTable& table);

/// Same, streaming from a caller-owned entry list (no copy into a
/// MeasurementTable — the broker's cache can be large).
/// Failure: returns false on I/O failure.
bool SaveMeasurementTable(const std::string& path, size_t num_options, size_t num_vars,
                          const std::vector<MeasurementTable::Entry>& entries);

/// Loads a v1 or v2 CSV table — or, transparently, a binary table (see
/// unicorn/backend/binary_table.h; the format is sniffed from the magic) —
/// from `path` into `*table`.
/// Failure: returns false — and leaves `*table` unspecified — on I/O
/// failure, a bad header, a malformed record (including non-finite payload
/// cells, which would poison the streaming moments), or an impossible shape
/// (zero options, or fewer variables than options).
bool LoadMeasurementTable(const std::string& path, MeasurementTable* table);

}  // namespace unicorn

#endif  // UNICORN_UNICORN_BACKEND_MEASUREMENT_TABLE_H_
