package com.quirks; // line comment after the package

/* a block comment
   over two lines */
public class Quirks {
	public void run(String id, String kind) {
		if (kind.isEmpty()) { log.warn("tab\there \"quoted\" " + id); }   
		else /* inline */ { log.error("back\\slash: " + describe(kind) + ""); }
	}

	public static String describe(String kind) {
		if (kind.startsWith("x")) { return "x-kind " + kind.trim(); } // trailing
		return "other";
	}
}  	 