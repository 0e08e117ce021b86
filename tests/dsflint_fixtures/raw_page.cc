// dsflint fixture: unaccounted page write outside the storage layer.
// Never compiled — lint fodder only.

namespace fixture {

class PageFileLike {
 public:
  int RawWrite(int page_index);
};

void Touch(PageFileLike& pf) {
  pf.RawWrite(0);  // SEEDED VIOLATION: raw-page-io (line 12)
}

}  // namespace fixture
