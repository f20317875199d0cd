package sweep

// Lim exposes L, the largest interval the WS histogram counts densely.
func (s *WS) Lim() int { return s.lim }
