#include "catalog/commit.h"

#include "common/hash.h"

namespace bauplan::catalog {

Bytes Commit::Serialize() const {
  BinaryWriter w;
  w.PutString(parent_id);
  w.PutString(merge_parent_id);
  w.PutString(message);
  w.PutString(author);
  w.PutU64(timestamp_micros);
  w.PutU32(static_cast<uint32_t>(tables.size()));
  for (const auto& [name, key] : tables) {
    w.PutString(name);
    w.PutString(key);
  }
  return w.TakeBuffer();
}

Result<Commit> Commit::Deserialize(const Bytes& bytes) {
  BinaryReader r(bytes);
  Commit c;
  BAUPLAN_ASSIGN_OR_RETURN(c.parent_id, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(c.merge_parent_id, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(c.message, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(c.author, r.GetString());
  BAUPLAN_ASSIGN_OR_RETURN(c.timestamp_micros, r.GetU64());
  BAUPLAN_ASSIGN_OR_RETURN(uint32_t ntables, r.GetCount());
  for (uint32_t i = 0; i < ntables; ++i) {
    BAUPLAN_ASSIGN_OR_RETURN(std::string name, r.GetString());
    BAUPLAN_ASSIGN_OR_RETURN(std::string key, r.GetString());
    c.tables.emplace(std::move(name), std::move(key));
  }
  c.id = c.ComputeId();
  return c;
}

std::string Commit::ComputeId() const {
  Bytes image = Serialize();
  return FingerprintHex(
      std::string_view(reinterpret_cast<const char*>(image.data()),
                       image.size()));
}

}  // namespace bauplan::catalog
