#ifndef BAUPLAN_CORE_AUDIT_LOG_H_
#define BAUPLAN_CORE_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "storage/object_store.h"

namespace bauplan::core {

/// One recorded platform action.
struct AuditEntry {
  int64_t sequence = 0;
  uint64_t timestamp_micros = 0;
  std::string actor;
  /// "query", "run", "replay", "create_table", "write_table",
  /// "create_branch", "delete_branch", "merge".
  std::string operation;
  /// Branch/tag/commit the action targeted.
  std::string ref;
  /// Operation-specific detail (SQL text, pipeline fingerprint, ...).
  std::string detail;
  /// "ok" or the failure's status string.
  std::string outcome;

  Bytes Serialize() const;
  static Result<AuditEntry> Deserialize(const Bytes& bytes);
};

/// Append-only, durable audit trail: the paper's *Full Auditability*
/// principle ("all work and access are centralized, auditable, and
/// aligned with security and governance policies", section 2). Every
/// platform verb writes one entry; nothing is ever rewritten.
class AuditLog {
 public:
  /// Does not own `store` or `clock`.
  AuditLog(storage::ObjectStore* store, Clock* clock,
           std::string prefix = "audit");

  /// Appends one entry (sequence and timestamp are assigned here).
  Status Record(const std::string& actor, const std::string& operation,
                const std::string& ref, const std::string& detail,
                const std::string& outcome);

  /// The most recent `limit` entries, newest first (0 = all).
  Result<std::vector<AuditEntry>> Tail(size_t limit = 0) const;

 private:
  std::string EntryKey(int64_t sequence) const;

  storage::ObjectStore* store_;
  Clock* clock_;
  std::string prefix_;
  int64_t next_sequence_ = 1;
  bool loaded_ = false;
};

}  // namespace bauplan::core

#endif  // BAUPLAN_CORE_AUDIT_LOG_H_
