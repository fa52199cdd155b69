#ifndef XYMON_WAREHOUSE_WAREHOUSE_H_
#define XYMON_WAREHOUSE_WAREHOUSE_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/clock.h"
#include "src/common/result.h"
#include "src/storage/persistent_map.h"
#include "src/storage/storage_hub.h"
#include "src/warehouse/domain_classifier.h"
#include "src/warehouse/metadata.h"
#include "src/warehouse/version_chain.h"
#include "src/xml/dom.h"
#include "src/xmldiff/diff.h"

namespace xymon::warehouse {

/// One page as fetched by the crawler (webstub) — URL plus raw bytes. The
/// warehouse decides whether it is XML by parsing.
struct FetchedContent {
  std::string url;
  std::string body;
};

/// What the warehouse learned from ingesting one fetch. Move-only: when the
/// fetch replaced an XML version, the result owns that retired version.
struct IngestResult {
  DocMeta meta;
  /// Current parsed document, owned by the warehouse: valid until the next
  /// Ingest of the same URL. nullptr for non-XML pages.
  const xml::Document* current = nullptr;
  /// The version this fetch replaced (XML to XML updates only), nullptr
  /// otherwise. Points into `retired`, so it lives as long as this result.
  const xml::Document* previous = nullptr;
  /// Owner of `previous`. The warehouse keeps one DOM per URL; the version a
  /// fetch replaces moves here, serves detect and resolve (its deleted
  /// elements), and is freed with this result.
  std::unique_ptr<xml::Document> retired;
  /// Element-level changes; see xmldiff::DiffResult. kDeleted changes point
  /// into `previous` (or into `current` for MarkDeleted).
  xmldiff::DiffResult diff;
  /// True when a malformed body for a warehoused-XML page was absorbed: the
  /// last good version was kept, nothing changed except last_accessed. The
  /// monitor counts such fetches instead of alerting on them.
  bool degraded = false;
};

/// Read-side collection interface: what the query processor needs from "the
/// warehouse" without caring whether it is one repository or a sharded set
/// of partitions (system::IngestPipeline aggregates one per shard).
class DocumentSource {
 public:
  virtual ~DocumentSource() = default;

  /// All warehoused XML documents in `domain` ("" = all) — the collection a
  /// continuous query ranges over.
  virtual std::vector<std::pair<const DocMeta*, const xml::Document*>>
  DocumentsInDomain(std::string_view domain) const = 0;
};

/// Dense DTD-id assignment shared across warehouse partitions, so a
/// `DTDID =` condition means the same DTD on every shard. Thread-safe:
/// shards assign ids concurrently from their worker threads. Virtual so a
/// shard running in a worker *process* can substitute a registry that asks
/// the supervisor's central instance over the wire (DESIGN.md §14) — the
/// id space stays process-global either way.
class DtdRegistry {
 public:
  virtual ~DtdRegistry() = default;

  /// Id for a DTD system-id, assigning the next dense id if unseen.
  /// "" maps to 0 (no DTD).
  virtual uint32_t IdFor(const std::string& dtd_url);

  /// Recovery: re-installs a persisted (url, id) pair. Conflicting seeds
  /// (same url, different id) keep the first — partitions recovered from the
  /// same run never conflict.
  virtual void Seed(const std::string& dtd_url, uint32_t id);

  size_t size() const;

 protected:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, uint32_t> ids_;
  uint32_t next_id_ = 1;
};

/// The XML repository + index manager of Figure 1, reduced to what the
/// monitoring chain needs (the full Xyleme repository, Natix, is out of
/// scope — DESIGN.md §1):
///   * stores the current version of every XML page, with persistent XIDs,
///     and nothing else: one DOM per URL. The version an update replaces is
///     diffed against and then handed to the IngestResult (DESIGN.md §16);
///   * tracks metadata and change status for XML *and* HTML pages (HTML is
///     "not warehoused": only its signature is kept, paper §1);
///   * assigns DOCIDs and dense DTDIDs.
class Warehouse : public DocumentSource {
 public:
  explicit Warehouse(const DomainClassifier* classifier = nullptr)
      : classifier_(classifier) {}

  /// Makes the repository durable (the paper's warehouse — Natix — is a
  /// persistent store): current versions, metadata, DOCID/DTDID counters
  /// and XID allocators are recovered from and written through to `store`
  /// (the first post-restart fetch of a changed page diffs against the
  /// recovered current version). Call before the first Ingest. The caller
  /// owns the store — when the monitor runs, the StorageHub owns every
  /// store (DESIGN.md §12). nullptr detaches.
  Status AttachStore(storage::PersistentMap* store);

  /// Atomically compacts the backing store (no-op without storage).
  Status CheckpointStorage() {
    return store_ != nullptr ? store_->Checkpoint() : Status::OK();
  }

  /// How warehouse records move when the StorageHub reshards: document
  /// records ("d:<url>") follow hash(url) % M — the same partitioning the
  /// pipeline scatters by — and the counters record replicates to every
  /// partition, with next_docid taken as the max and the DTD tables
  /// unioned (ids are globally consistent, so the union is conflict-free).
  static storage::ReshardHooks MakeReshardHooks();

  /// Retains up to `max_deltas` historical versions per XML document
  /// (snapshot + deltas, paper [17]). Off by default — the monitoring chain
  /// only needs the version it diffs against; versioning serves GetVersion /
  /// change-inspection use cases. Call before the first Ingest.
  void EnableVersioning(size_t max_deltas = 16) {
    versioning_ = true;
    max_deltas_ = max_deltas;
  }

  /// Degrade-don't-die (acquisition resilience): when a warehoused-XML URL
  /// suddenly returns a body that does not parse — a truncated transfer or
  /// a proxy error page, not a real edit — tolerate up to `max_consecutive`
  /// such fetches: the last good version is kept and IngestResult.degraded
  /// is set. Beyond the cap the type change is accepted (the page really is
  /// no longer XML). 0 restores the old drop-immediately behaviour.
  void set_max_parse_failures(uint32_t max_consecutive) {
    max_parse_failures_ = max_consecutive;
  }

  /// Ingests one fetch: computes the new status (new/updated/unchanged),
  /// parses XML, versions it and computes the delta against the previous
  /// version. Invalid XML is ingested as a non-XML page (the real system
  /// cannot reject the web).
  ///
  /// `preassigned_docid` != 0 pins the DOCID a first-time URL receives; the
  /// sharded pipeline allocates ids centrally in scatter order so DOCIDs are
  /// identical for every shard count. 0 keeps internal allocation.
  IngestResult Ingest(const FetchedContent& page, Timestamp now,
                      uint64_t preassigned_docid = 0);

  /// Marks a URL as deleted, producing element-level kDeleted changes for
  /// the whole old tree. NotFound if the URL is unknown.
  Result<IngestResult> MarkDeleted(const std::string& url, Timestamp now);

  /// Metadata for a URL; nullptr if never ingested.
  const DocMeta* GetMeta(const std::string& url) const;
  /// Current XML document for a URL; nullptr if absent or non-XML.
  const xml::Document* GetDocument(const std::string& url) const;

  /// All warehoused XML documents in `domain` ("" = all) — the collection a
  /// continuous query ranges over.
  std::vector<std::pair<const DocMeta*, const xml::Document*>> DocumentsInDomain(
      std::string_view domain) const override;

  /// Visits the metadata of every known document (any status). The sharded
  /// pipeline rebuilds its central URL → DOCID map from this on recovery.
  void ForEachMeta(const std::function<void(const DocMeta&)>& fn) const;

  /// Dense id for a DTD system-id (assigning a new one if unseen). With a
  /// shared registry (sharded mode) the assignment is process-global.
  uint32_t DtdIdFor(const std::string& dtd_url);

  /// Shares DTD-id assignment with other warehouse partitions. Call before
  /// the first Ingest/AttachStore. The local table still records the ids
  /// this partition saw (it is what gets persisted).
  void set_dtd_registry(DtdRegistry* registry) { dtd_registry_ = registry; }

  /// Persisted (dtd url → id) table, for seeding a shared registry after
  /// recovery.
  const std::unordered_map<std::string, uint32_t>& dtd_ids() const {
    return dtd_ids_;
  }

  // -- Version history (requires EnableVersioning) ---------------------------

  /// Number of reconstructible versions of `url` (0 if unknown/non-XML).
  size_t VersionCount(const std::string& url) const;
  /// Reconstructs version `index` (0 = oldest retained) of `url`.
  Result<std::unique_ptr<xml::Node>> GetVersion(const std::string& url,
                                                size_t index) const;
  /// Timestamp of version `index`.
  Result<Timestamp> GetVersionTime(const std::string& url,
                                   size_t index) const;

  size_t document_count() const { return entries_.size(); }

 private:
  struct Entry {
    DocMeta meta;
    bool has_current = false;
    xml::Document current;
    xmldiff::XidAllocator xids;
    std::unique_ptr<VersionChain> versions;
    uint32_t parse_failures = 0;  // consecutive malformed bodies absorbed
  };

  std::string EncodeEntry(const Entry& entry) const;
  Status DecodeEntry(const std::string& url, std::string_view record);
  void PersistEntry(const Entry& entry);
  void PersistCounters();

  const DomainClassifier* classifier_;
  DtdRegistry* dtd_registry_ = nullptr;
  bool versioning_ = false;
  size_t max_deltas_ = 16;
  uint32_t max_parse_failures_ = 3;
  storage::PersistentMap* store_ = nullptr;
  std::unordered_map<std::string, std::unique_ptr<Entry>> entries_;
  std::unordered_map<std::string, uint32_t> dtd_ids_;
  uint64_t next_docid_ = 1;
};

}  // namespace xymon::warehouse

#endif  // XYMON_WAREHOUSE_WAREHOUSE_H_
