// Replays a persisted measurement table: cross-session reuse as a backend.
//
// A RecordedBackend serves exactly the configurations some earlier campaign
// measured (loaded from the MeasurementTable CSV a broker SaveCache wrote).
// It is the capability-aware fleet member: Supports() is false for anything
// unrecorded, so routing sends known configurations here for free and novel
// ones to live backends. With an environment tag — taken from the table's
// provenance column when uniform, or set explicitly — requests tagged with
// the recorded environment resolve from the recording, and no fresh
// measurement on that hardware ever happens. (Rows that should teach a
// model go straight into its engine via CausalModelEngine::SeedFromTable;
// this backend answers *requests* for recorded configurations.)
#ifndef UNICORN_UNICORN_BACKEND_RECORDED_BACKEND_H_
#define UNICORN_UNICORN_BACKEND_RECORDED_BACKEND_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "unicorn/backend/backend.h"
#include "unicorn/backend/measurement_table.h"
#include "util/hash.h"

namespace unicorn {

/// Replay member of a fleet. Immutable after construction, so every method
/// is safe from any number of fleet workers concurrently.
class RecordedBackend : public MeasurementBackend {
 public:
  /// Takes ownership of the table's entries. `environment` overrides the
  /// routing tag; when empty, the tag is the table's uniform provenance
  /// label (empty again if the recording is unlabeled or mixed). Duplicate
  /// configurations keep the first recorded row.
  explicit RecordedBackend(MeasurementTable table, std::string name = "recorded",
                           int concurrency = 1, std::string environment = "");

  /// Loads `path`. Failure: a missing/corrupt file yields an empty backend
  /// that supports nothing (check size()) — it never throws.
  static RecordedBackend FromFile(const std::string& path, std::string name = "recorded",
                                  std::string environment = "");

  const std::string& name() const override { return name_; }
  int concurrency() const override { return concurrency_; }
  const std::string& environment() const override { return environment_; }

  /// True iff `config` was recorded (bit-exact match).
  bool Supports(const std::vector<double>& config) const override;

  /// Returns the recorded row for `config`. Failure: a configuration that
  /// was never recorded returns a *permanent* failure (routing should not
  /// have sent it here; retrying on this backend can never succeed).
  /// Thread-safety: read-only lookup; safe from any number of workers.
  MeasureOutcome Measure(const std::vector<double>& config, int attempt) override;

  size_t size() const { return rows_.size(); }

 private:
  std::string name_;
  int concurrency_;
  std::string environment_;
  std::unordered_map<std::vector<double>, std::vector<double>, ConfigHash> rows_;
};

}  // namespace unicorn

#endif  // UNICORN_UNICORN_BACKEND_RECORDED_BACKEND_H_
