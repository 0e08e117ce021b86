// dsflint fixture: unaccounted run write outside the storage layer.
// Never compiled — lint fodder only.

namespace fixture {

class PageFileLike {
 public:
  int RawWriteRun(int first, int count);
};

void Touch(PageFileLike* pf) {
  // The run form is as unaccounted as the single-page RawWrite.
  pf->RawWriteRun(1, 64);  // SEEDED VIOLATION: raw-page-io (line 13)
}

}  // namespace fixture
